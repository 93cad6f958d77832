"""Exact SU(2) sector counting for chains of identical spins.

The L-fold tensor power of a microscopic spin decomposes into total-spin
irreps; everything here computes the irrep multiplicities and derived sector
dimensions with exact integer arithmetic.  Half-integer spins are represented
as doubled integers throughout (``two_j = 2J``), which keeps all integrality
constraints decidable without floating point.
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from .special import log_binomial

__all__ = [
    "SpinSpecies",
    "HALF",
    "ONE",
    "SectorLabel",
    "MultiplicityTable",
    "spin_half_multiplicity",
    "spin_half_multiplicity_log",
    "multiplicity",
    "multiplicity_table",
    "zero_magnetization_dim",
    "hilbert_fraction",
    "admissible_two_j",
]


@dataclass(frozen=True)
class SpinSpecies:
    """Microscopic spin carried by each lattice site, as a doubled integer."""

    two_s: int

    def __post_init__(self):
        if self.two_s not in (1, 2):
            raise ValueError(
                f"unsupported microscopic spin 2s={self.two_s}; supported: 1 (spin-1/2), 2 (spin-1)"
            )

    @property
    def microscopic_spin(self) -> Fraction:
        return Fraction(self.two_s, 2)

    @property
    def local_dim(self) -> int:
        return self.two_s + 1

    @property
    def name(self) -> str:
        return "half" if self.two_s == 1 else "one"

    @classmethod
    def from_name(cls, name):
        try:
            return {"half": HALF, "one": ONE}[name]
        except KeyError:
            raise ValueError(f"unknown species {name!r}; expected 'half' or 'one'") from None


HALF = SpinSpecies(1)
ONE = SpinSpecies(2)


def _is_integer(value):
    """Python and numpy integers; a bool is not a count or a size."""
    # int first: the ABC test costs ~0.25 us, and a closed form checks thousands of spins
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(name, value, minimum=None):
    """The checked `value` as a Python int: numpy integers overflow in big-integer sums."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_exact_sites(sites):
    """A checked L, refused past 2**63 - 1, where math.comb, numpy indices and
    range overflow: for the exact forms, as the log and asymptotic ones take
    any L up to `_check_float_sites`."""
    if sites > 2**63 - 1:
        raise ValueError(f"sites must be at most 2**63 - 1, got {sites}")
    return sites


def _check_float_sites(sites):
    """A checked L, refused past 2**1000 for the log and asymptotic forms: beyond
    float range (~1.8e308) converting L overflows, and the margin keeps their
    float products, the largest being lgamma(L + 1) ~ L ln L, finite."""
    if sites > 2**1000:
        raise ValueError(f"sites must be at most 2**1000, got an integer of {sites.bit_length()} bits")
    return sites


def _check_fraction(name, value):
    """`value` as an exact Fraction; ValueError unless it is a finite real
    number or a rational string such as '1/3'."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"{name} must be a finite real number, got {value!r}") from None


def _check_spin_density(j, allow_zero=False):
    """A Python or numpy real, not a bool, in (0, 1], or [0, 1] if `allow_zero`."""
    if not (type(j) is float or isinstance(j, numbers.Real) and not isinstance(j, bool)):
        raise ValueError(f"spin density must be a real number, got {j!r}")
    if not 0.0 <= j <= 1.0 or j == 0.0 and not allow_zero:
        interval = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"spin density must lie in {interval}, got {j}")


def _check_species(species):
    """Refuse anything but a `SpinSpecies`, such as its name "half"."""
    if not isinstance(species, SpinSpecies):
        raise ValueError(f"species must be a SpinSpecies (HALF or ONE), got {species!r}")


def _check_zero_jz(species, sites):
    """Spin-1/2 chains of odd L have no J_z = 0 sector."""
    if species.two_s == 1 and sites % 2:
        raise ValueError(f"the spin-1/2 J_z=0 sector needs an even number of sites, got {sites}")


def _check_spin_label(species, sites, two_j, what="two_j"):
    """The checked (sites, two_j) as Python ints."""
    _check_species(species)
    sites, two_j = _check_integer("sites", sites, 0), _check_integer(what, two_j, 0)
    if two_j > species.two_s * sites:
        raise ValueError(
            f"{what}={two_j} exceeds the maximal total spin 2*s*L={species.two_s * sites}"
        )
    if (species.two_s * sites - two_j) % 2:
        raise ValueError(
            f"{what}={two_j} has the wrong integrality class for {sites} sites of spin {species.name}"
        )
    return sites, two_j


@dataclass(frozen=True)
class SectorLabel:
    """A (J, J_z) symmetry sector of an L-site chain; the integers are stored as Python ints."""

    species: SpinSpecies
    sites: int
    two_j: int
    two_jz: int = 0

    def __post_init__(self):
        _check_integer("sites", self.sites, 1)
        sites, two_j = _check_spin_label(self.species, self.sites, self.two_j)
        two_jz = _check_integer("two_jz", self.two_jz)
        if abs(two_jz) > two_j:
            raise ValueError(f"|two_jz|={abs(two_jz)} exceeds two_j={two_j}")
        if (two_jz - two_j) % 2:
            raise ValueError(f"two_jz={two_jz} incompatible with two_j={two_j}")
        for name, value in (("sites", sites), ("two_j", two_j), ("two_jz", two_jz)):
            object.__setattr__(self, name, value)

    @property
    def spin_density(self) -> float:
        return self.two_j / (self.species.two_s * self.sites)


def _ballot_ratios(sites, spins):
    """Lists (u, d) over each t = 2J in `spins`: n_{t-2} d = n_t u for `sites`
    spin-1/2, with the small integers u = (t-1)(L+t+2) and d = (t+1)(L-t+2).

    Two lists of ints, not one list of pairs: ints are not tracked by the
    garbage collector, but thousands of live pairs set off its collections
    inside the caller's loop.
    """
    return [(t - 1) * (sites + t + 2) for t in spins], [(t + 1) * (sites - t + 2) for t in spins]


# _binomial leaves C(n, k), k <= n/2, to math.comb while k*k <= COMB_CROSSOVER * n:
# math.comb's time grows as ~k**1.6 to k**2, the prime-factored form's as ~n.  Measured
# (Python 3.11, 2-core VM), the factored form is faster from k*k/n = 375-470 on:
# C(2000, 1000) 0.111 against 0.119 ms, C(10**4, 5000) 0.48 against 2.2 ms,
# C(10**4, 2500) 0.46 against 0.72 ms, but C(5000, 1250) 0.240 against 0.217 ms.
COMB_CROSSOVER = 400


def _primes_upto(n):
    """The primes p <= n, ascending, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _binomial(n, k):
    """C(n, k) for 0 <= k <= n: math.comb up to COMB_CROSSOVER, past it the product
    of p**e over the primes p <= n, with e = sum_i floor(n/p**i) - floor(k/p**i) -
    floor((n-k)/p**i) (Legendre), multiplied pairwise as a balanced product tree."""
    k = min(k, n - k)
    if k * k <= COMB_CROSSOVER * n:
        return math.comb(n, k)
    factors = []
    for p in _primes_upto(n):
        e, power = 0, p
        while power <= n:
            e += n // power - k // power - (n - k) // power
            power *= p
        if e:
            factors.append(p**e)
    while len(factors) > 1:
        factors = [x * y for x, y in zip(factors[::2], factors[1::2])] + factors[len(factors) & ~1 :]
    return factors[0]


def _multiplicity_run(sites, two_lo, two_hi):
    """{two_j: n_J} of `sites` spin-1/2 for two_j = two_lo, two_lo + 2, .., two_hi.

    n_J = 2(2J+1) C(L, q) / (L+2J+2), q = L/2 - J (the ballot problem with ties
    allowed), from one binomial at the run's top (`_binomial`), then down the
    run by the exact ballot ratios n_{t-2} = n_t u / d: one multiply and one
    division by a small integer per spin.
    """
    num = 2 * (two_hi + 1) * _binomial(sites, (sites - two_hi) // 2)
    den = sites + two_hi + 2
    n, rest = divmod(num, den)
    if rest:  # n_J = C(L, q) - C(L, q-1) is an integer; not an assert, so python -O keeps it
        raise AssertionError(f"n_J at L = {sites}, 2J = {two_hi} is not an integer")
    out = [n]
    for u, d in zip(*_ballot_ratios(sites, range(two_hi, two_lo, -2))):
        n = n * u // d
        out.append(n)
    return dict(zip(range(two_lo, two_hi + 1, 2), reversed(out)))


def spin_half_multiplicity(sites, two_j):
    """Number of spin-J irreps in the L-fold product of spin-1/2, exactly: the
    ballot form n_J = 2(2J+1) C(L, L/2 - J) / (L+2J+2), as a run of one spin."""
    sites, two_j = _check_spin_label(HALF, sites, two_j)
    _check_exact_sites(sites)
    return _multiplicity_run(sites, two_j, two_j)[two_j]


def spin_half_multiplicity_log(sites, two_j):
    """ln of `spin_half_multiplicity`, stable for large L."""
    sites, two_j = _check_spin_label(HALF, sites, two_j)
    _check_float_sites(sites)
    q = (sites - two_j) // 2
    return math.log(2.0 * (1 + two_j) / (2 + sites + two_j)) + log_binomial(sites, q)


@lru_cache(maxsize=None)
def _fusion_counts(two_s, sites):
    """Multiplicities {two_j: n} after `sites` fusions with the local spin."""
    counts = {0: 1}
    for _ in range(sites):
        new = {}
        for two_j, n in counts.items():
            for two_jp in range(abs(two_j - two_s), two_j + two_s + 1, 2):
                new[two_jp] = new.get(two_jp, 0) + n
        counts = new
    return tuple(sorted(counts.items()))


@dataclass(frozen=True)
class MultiplicityTable:
    """All irrep multiplicities of a fixed (species, L) chain."""

    species: SpinSpecies
    sites: int
    entries: tuple  # ((two_j, n), ...) sorted by two_j

    def multiplicity(self, two_j) -> int:
        for tj, n in self.entries:
            if tj == two_j:
                return n
        return 0

    def items(self):
        return self.entries

    def total_dimension(self) -> int:
        return sum((tj + 1) * n for tj, n in self.entries)

    def irrep_count(self) -> int:
        return sum(n for _, n in self.entries)


def multiplicity_table(species, sites):
    """Exact multiplicities by repeated application of the SU(2) fusion rule.

    This is the brute-force oracle valid for every species; it starts from the
    trivial representation at L=0 and fuses one site at a time.
    """
    _check_species(species)
    sites = _check_exact_sites(_check_integer("sites", sites, 0))
    return MultiplicityTable(species, sites, _fusion_counts(species.two_s, sites))


def multiplicity(species, sites, two_j):
    """Exact multiplicity of total spin two_j/2 in species**L."""
    _check_species(species)
    if species.two_s == 1:
        return spin_half_multiplicity(sites, two_j)
    sites, two_j = _check_spin_label(species, sites, two_j)
    return multiplicity_table(species, sites).multiplicity(two_j)


def zero_magnetization_dim(sites):
    """Dimension of the J_z=0 (even L) or J_z=+-1/2 (odd L) spin-1/2 sector."""
    sites = _check_exact_sites(_check_integer("sites", sites, 0))
    return math.comb(sites, sites // 2)


def hilbert_fraction(sites, two_j):
    """Exact fraction n_J / D of the spin-1/2 zero-magnetization sector."""
    return Fraction(spin_half_multiplicity(sites, two_j), zero_magnetization_dim(sites))


def admissible_two_j(species, sites):
    """All two_j with nonzero multiplicity, ascending."""
    _check_species(species)
    sites = _check_exact_sites(_check_integer("sites", sites, 0))
    if sites == 0:
        return [0]
    if species.two_s == 1:
        return list(range(sites % 2, sites + 1, 2))
    return [tj for tj, n in multiplicity_table(species, sites).items() if n > 0]
