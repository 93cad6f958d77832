"""Large-L asymptotics of SU(2) sector multiplicities.

The multiplicity of total spin J = j*s*L in species**L grows like
``n ~ alpha(j)/sqrt(L) * exp(rate(j)*L)``.  The rate and prefactor follow
from a saddle-point treatment of the character orthogonality integral: with
``psi(z) = 2*s*j*ln z + ln[(z**(2s+1) - z**-(2s+1)) / (z - 1/z)]`` the saddle
z0 > 0 solves psi'(z0) = 0, the rate is psi(z0), and the prefactor collects
the Gaussian fluctuation 1/sqrt(2*pi*psi''(z0)*L) together with the measure
factor (1 - z0**2)/(pi*z0) of the two real saddles +-z0.
"""

import math
from dataclasses import dataclass

from .combinatorics import HALF, _check_integer, _check_spin_density, _check_spin_label

__all__ = [
    "multiplicity_rate",
    "SaddleData",
    "saddle_solve",
    "log_multiplicity_saddle",
    "hilbert_fraction_asymptotic",
    "fraction_peak_density",
]


def multiplicity_rate(species, j):
    """Exponential growth rate (nats per site) of n_J at spin density j = J/(sL).

    The endpoint values ln(2s+1) at j=0 and 0 at j=1 are the analytic limits
    of the closed forms, which are 0/0 there.
    """
    _check_spin_density(j, allow_zero=True)
    if j == 0.0:
        return math.log(species.local_dim)
    if j == 1.0:
        return 0.0
    if species.two_s == 1:
        return -((1 + j) / 2 * math.log((1 + j) / 2) + (1 - j) / 2 * math.log((1 - j) / 2))
    root = math.sqrt(4.0 - 3.0 * j * j)
    return math.log(3.0 / (root - 1.0)) + j * math.log((root - j) / (2.0 * (1.0 + j)))


def _char_poly(two_s, z):
    """sum_{k=0..2s} z**(2s-2k), the SU(2) character as a Laurent polynomial."""
    return sum(z ** (two_s - 2 * k) for k in range(two_s + 1))


def _char_poly_d1(two_s, z):
    return sum((two_s - 2 * k) * z ** (two_s - 2 * k - 1) for k in range(two_s + 1))


def _char_poly_d2(two_s, z):
    return sum(
        (two_s - 2 * k) * (two_s - 2 * k - 1) * z ** (two_s - 2 * k - 2)
        for k in range(two_s + 1)
    )


def saddle_exponent(species, z, j):
    """psi(z) at spin density j."""
    return species.two_s * j * math.log(z) + math.log(_char_poly(species.two_s, z))


def saddle_exponent_d2(species, z, j):
    p = _char_poly(species.two_s, z)
    p1 = _char_poly_d1(species.two_s, z)
    p2 = _char_poly_d2(species.two_s, z)
    return -species.two_s * j / (z * z) + (p2 * p - p1 * p1) / (p * p)


def _closed_form_saddle(species, j):
    if species.two_s == 1:
        return math.sqrt((1.0 - j) / (1.0 + j))
    root = math.sqrt(4.0 - 3.0 * j * j)
    return math.sqrt((root - j) / (2.0 * (1.0 + j)))


@dataclass(frozen=True)
class SaddleData:
    """Saddle-point data for the multiplicity asymptotics at one spin density."""

    spin_density: float
    saddle_point: float
    rate: float  # nats per site
    prefactor: float  # n ~ prefactor/sqrt(L) * exp(rate*L)
    endpoint: bool = False


def saddle_solve(species, j):
    """Locate the dominant saddle and assemble rate and prefactor.

    The saddle location has a closed form for both species.  j=1 is returned
    as a flagged endpoint (the saddle degenerates to z0=0 and the prefactor is
    undefined).
    """
    _check_spin_density(j)
    if j == 1.0:
        return SaddleData(j, 0.0, 0.0, math.nan, endpoint=True)
    z0 = _closed_form_saddle(species, j)
    rate = saddle_exponent(species, z0, j)
    curv = saddle_exponent_d2(species, z0, j)
    if curv <= 0.0:
        raise RuntimeError(f"non-positive saddle curvature {curv} at j={j}")
    prefactor = (1.0 - z0 * z0) / z0 * math.sqrt(2.0 / (math.pi * curv))
    return SaddleData(j, z0, rate, prefactor)


def log_multiplicity_saddle(species, sites, two_j):
    """ln n_J from the saddle-point approximation (log domain, no overflow)."""
    _check_spin_label(species, sites, two_j)
    if sites < 1:
        raise ValueError(f"saddle approximation needs sites >= 1, got {sites}")
    j = two_j / (species.two_s * sites)
    if j == 0.0 or j == 1.0:
        raise ValueError(
            f"saddle approximation is undefined at spin density {j}; use the exact formulas"
        )
    sd = saddle_solve(species, j)
    return sd.rate * sites + math.log(sd.prefactor) - 0.5 * math.log(sites)


def hilbert_fraction_asymptotic(sites, two_j):
    """Large-L approximation of n_J / D for spin-1/2 at density x = 2J/L.

    Valid for 0 <= x < 1; exact integer ratios should be used at the upper
    endpoint.
    """
    _check_spin_label(HALF, sites, two_j)
    if sites < 1:
        raise ValueError(f"the Hilbert-space fraction needs sites >= 1, got {sites}")
    x = two_j / sites
    if x >= 1.0:
        return math.nan
    pref = 2.0 / math.sqrt(1.0 - x * x) * (x / (1.0 + x) + (1.0 - x) / ((1.0 + x) ** 2 * sites))
    expo = -((1.0 + x) / 2.0 * math.log1p(x) + (1.0 - x) / 2.0 * math.log1p(-x)) * sites
    return pref * math.exp(expo)


def fraction_peak_density(sites):
    """Density x = 2J/L where n_J/D peaks, to order L**-3/2."""
    _check_integer("sites", sites, 1)
    rl = math.sqrt(sites)
    return 1.0 / rl - 1.0 / (2.0 * sites) + 9.0 / (8.0 * sites * rl)
