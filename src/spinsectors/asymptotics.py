"""Large-L asymptotics of SU(2) sector multiplicities.

The multiplicity of total spin J = j*s*L in species**L grows like
``n ~ alpha(j)/sqrt(L) * exp(rate(j)*L)``.  The rate and prefactor follow
from a saddle-point treatment of the character orthogonality integral: with
``psi(z) = 2*s*j*ln z + ln[(z**(2s+1) - z**-(2s+1)) / (z - 1/z)]`` the saddle
z0 > 0 solves psi'(z0) = 0, the rate is psi(z0), and the prefactor collects
the Gaussian fluctuation 1/sqrt(2*pi*psi''(z0)*L) together with the measure
factor (1 - z0**2)/(pi*z0) of the two real saddles +-z0.

Each species has one closed form each for u = z0**2, 1 - u and psi''(z0);
none subtracts two numbers near 1, so all keep full relative precision over
0 < j < 1.  psi through the character polynomial lives in the tests, as the
reference that certifies these forms.
"""

import math
from dataclasses import dataclass

from .combinatorics import (
    HALF, _check_float_sites, _check_integer, _check_species, _check_spin_density, _check_spin_label)

__all__ = [
    "multiplicity_rate",
    "SaddleData",
    "saddle_solve",
    "log_multiplicity_saddle",
    "hilbert_fraction_asymptotic",
    "fraction_peak_density",
]


def _saddle_forms(species, j):
    """(u, 1 - u, psi''(z0)) at spin density 0 < j < 1, with u = z0**2."""
    if species.two_s == 1:
        return (1.0 - j) / (1.0 + j), 2.0 * j / (1.0 + j), (1.0 + j) ** 2
    root = math.sqrt(4.0 - 3.0 * j * j)
    u = 2.0 * (1.0 - j) / (root + j)
    gap = 3.0 * j * (root + 2.0 - j) / ((root + 2.0) * (root + j))
    return u, gap, 4.0 * (1.0 + j) * root / (u + 2.0)


def multiplicity_rate(species, j):
    """Exponential growth rate (nats per site) of n_J at spin density j = J/(sL).

    psi(z0): the binary entropy of (1 +- j)/2 for spin-1/2, and (j - 1) ln u
    + ln(1 + u + u**2) for spin-1, its last term summed as log1p((u + (1 - j))
    / (1 + j)) so u is kept as j -> 1.  The endpoint values ln(2s+1) at j=0
    and 0 at j=1 are the analytic limits.
    """
    _check_species(species)
    _check_spin_density(j, allow_zero=True)
    if j == 0.0:
        return math.log(species.local_dim)
    if j == 1.0:
        return 0.0
    if species.two_s == 1:
        return -((1 + j) / 2 * math.log1p((j - 1) / 2) + (1 - j) / 2 * math.log((1 - j) / 2))
    u = _saddle_forms(species, j)[0]
    return (j - 1) * math.log(u) + math.log1p((u + (1 - j)) / (1 + j))


@dataclass(frozen=True)
class SaddleData:
    """Saddle-point data for the multiplicity asymptotics at one spin density."""

    spin_density: float
    saddle_point: float
    rate: float  # nats per site
    prefactor: float  # n ~ prefactor/sqrt(L) * exp(rate*L)
    endpoint: bool = False


def saddle_solve(species, j):
    """Saddle point, rate and prefactor from the closed forms of u = z0**2,
    1 - u and psi''(z0); the rate is `multiplicity_rate`.

    j=1 is returned as a flagged endpoint (the saddle degenerates to z0=0
    and the prefactor is undefined).
    """
    _check_species(species)
    _check_spin_density(j)
    if j == 1.0:
        return SaddleData(j, 0.0, 0.0, math.nan, endpoint=True)
    u, gap, curv = _saddle_forms(species, j)
    prefactor = gap / math.sqrt(u) * math.sqrt(2.0 / (math.pi * curv))
    return SaddleData(j, math.sqrt(u), multiplicity_rate(species, j), prefactor)


def log_multiplicity_saddle(species, sites, two_j):
    """ln n_J from the saddle-point approximation (log domain, no overflow)."""
    _check_spin_label(species, sites, two_j)
    if sites < 1:
        raise ValueError(f"saddle approximation needs sites >= 1, got {sites}")
    _check_float_sites(sites)
    j = two_j / (species.two_s * sites)
    if j == 0.0 or j == 1.0:
        raise ValueError(
            f"saddle approximation is undefined at spin density {j}; use the exact formulas"
        )
    sd = saddle_solve(species, j)
    return sd.rate * sites + math.log(sd.prefactor) - 0.5 * math.log(sites)


def hilbert_fraction_asymptotic(sites, two_j):
    """Large-L approximation of n_J / D for spin-1/2 at density x = 2J/L.

    Valid for 0 <= x < 1, where the prefactor stays finite; x = 1 is refused,
    and `hilbert_fraction` gives the exact ratio there.
    """
    _check_spin_label(HALF, sites, two_j)
    if sites < 1:
        raise ValueError(f"the Hilbert-space fraction needs sites >= 1, got {sites}")
    _check_float_sites(sites)
    x = two_j / sites
    if x >= 1.0:
        raise ValueError(f"the asymptotic fraction needs 2J/L < 1 in floats, got 2J={two_j}, L={sites}; "
                         "use hilbert_fraction")
    pref = 2.0 / math.sqrt(1.0 - x * x) * (x / (1.0 + x) + (1.0 - x) / ((1.0 + x) ** 2 * sites))
    expo = -((1.0 + x) / 2.0 * math.log1p(x) + (1.0 - x) / 2.0 * math.log1p(-x)) * sites
    return pref * math.exp(expo)


def fraction_peak_density(sites):
    """Density x = 2J/L where n_J/D peaks, to order L**-3/2."""
    _check_float_sites(_check_integer("sites", sites, 1))
    rl = math.sqrt(sites)
    return 1.0 / rl - 1.0 / (2.0 * sites) + 9.0 / (8.0 * sites * rl)
