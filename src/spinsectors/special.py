"""Scalar special functions shared across the package."""

import math
import numbers
import sys

__all__ = ["digamma"]

EULER_GAMMA = 0.5772156649015328606065

# B_{2n}/(2n) for n = 1..7, the tail of the de Moivre expansion of psi(x).
_B2, _B4, _B6, _B8, _B10, _B12, _B14 = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0)

_PSI_SHIFT = 10.0


def digamma(x):
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0.

    Small arguments are shifted upward with psi(x+1) = psi(x) + 1/x until the
    asymptotic series applies; accurate to ~1e-14 absolute on x >= 1e-6.
    Integers beyond float range (sector dimensions at L >~ 1030) return
    ln x: the dropped 1/(2x) is below 1e-300.
    """
    if type(x) is int and x > sys.float_info.max:
        return math.log(x)
    # exact types first: the ABC test costs ~0.25 us, and the closed forms pass thousands of ints
    if type(x) not in (int, float) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise ValueError(f"digamma requires a real number, got {x!r}")
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < _PSI_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    # Horner's rule from the last term, unrolled: ~0.2 us less per call, and 11 calls per sd2 row
    tail = ((((((_B14 * u + _B12) * u + _B10) * u + _B8) * u + _B6) * u + _B4) * u + _B2) * u
    return acc + math.log(x) - 0.5 / x - tail


def log_binomial(n, k):
    """ln C(n, k) for integers 0 <= k <= n, via lgamma."""
    if k < 0 or k > n:
        raise ValueError(f"binomial index out of range: C({n}, {k})")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

