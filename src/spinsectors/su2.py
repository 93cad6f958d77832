"""Clebsch-Gordan coupling and two-site operators on the magnetization slice.

All angular momenta enter as doubled integers.  Clebsch-Gordan columns come
from the three-term J**2 recursion in m; closed forms read log-binomial
stretched ones, one `_stretched_pass` per pass that `ensembles._passes` plans.
Operators act on the fixed-J_z slice: a configuration is one base-(2s+1) digit
per site, and only configurations with the requested total J_z are stored.
"""

import math
from functools import lru_cache

import numpy as np

from .combinatorics import _check_integer, _is_integer

__all__ = [
    "clebsch_gordan",
    "configuration_space",
    "bond_matrix_elements",
    "spin_squared_terms",
]


def _check_momentum(two_j, two_m, what):
    """The checked (two_j, two_m) as Python ints: unsigned numpy ones wrap in differences."""
    if not (_is_integer(two_j) and _is_integer(two_m)):
        raise ValueError(f"{what}: two_j={two_j!r} and two_m={two_m!r} must be integers")
    two_j, two_m = int(two_j), int(two_m)
    if two_j < 0:
        raise ValueError(f"{what}: negative angular momentum two_j={two_j}")
    if (two_j - two_m) % 2:
        raise ValueError(f"{what}: two_m={two_m} incompatible with two_j={two_j}")
    return two_j, two_m


def clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_j, two_m):
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> (Condon-Shortley).

    Selection-rule violations return exactly 0.0; integrality violations
    raise.  Others come from `_cg_columns`, one `_cg_solve` call per (j1, j2, M),
    ~4 ms at 2j1 = 2j2 = 200 (~8 ms at M != 0): within 1e-15 of exact up to 2j =
    14 and ~2e-14 at 2j ~ 300.
    """
    two_j1, two_m1 = _check_momentum(two_j1, two_m1, "j1")
    two_j2, two_m2 = _check_momentum(two_j2, two_m2, "j2")
    two_j, two_m = _check_momentum(two_j, two_m, "J")
    if (abs(two_m1) > two_j1 or abs(two_m2) > two_j2 or abs(two_m) > two_j
            or two_m1 + two_m2 != two_m or not abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2):
        return 0.0
    row = (min(two_j1, two_m + two_j2) - two_m1) // 2
    col = (two_j - max(abs(two_j1 - two_j2), abs(two_m))) // 2
    return float(_cg_columns(two_j1, two_j2, two_m)[row, col])


@lru_cache(maxsize=256)
def _cg_columns(two_j1, two_j2, two_m):
    """`_cg_solve` columns of every J = max(|j1-j2|, |M|) + k at one M."""
    two_j = np.arange(max(abs(two_j1 - two_j2), abs(two_m)), two_j1 + two_j2 + 1, 2)
    return _cg_solve(two_j1, two_j2, two_j, two_m)


def _cg_solve(two_j1, two_j2, two_j, two_m):
    """Read-only <j1 m1; j2 M-m1 | J M>, one column per element of the broadcast
    spin arrays: row i is m1 = min(j1, M+j2) - i, zero past the column's end.

    The J**2 relation of Schulten and Gordon (J. Math. Phys. 16, 1961 (1975))
    runs from row 0 = 1 down and (as the run at -M) from the last row up, each
    kept below 2**500 by exact powers of two.  Stable while they grow, the runs
    join where their product is largest, there equal to 1; row 0 stays positive
    (Condon-Shortley), and a running-sum norm keeps columns batch-independent.
    """
    two_j1, two_j2, two_j = np.broadcast_arrays(two_j1, two_j2, two_j)
    size = (np.minimum(two_j1, two_m + two_j2) - np.maximum(-two_j1, two_m - two_j2)) // 2 + 1
    rows, cols, runs = np.arange(size.max())[:, None], np.arange(size.size), 1 + bool(two_m)
    j1, j2, j = (np.tile(a / 2, runs) for a in (two_j1, two_j2, two_j))
    m = np.repeat([two_m / 2, -two_m / 2][:runs], size.size)
    live = np.tile(rows < size - 1, runs)  # row i couples to row i + 1
    m1 = np.minimum(j1, m + j2) - rows
    m2 = m - m1
    off = np.sqrt(np.where(live, (j1 + m1) * (j1 - m1 + 1) * (j2 - m2) * (j2 + m2 + 1), 1.0))
    gap = np.where(live, j * (j + 1) - j1 * (j1 + 1) - j2 * (j2 + 1) - 2 * m1 * m2, 0.0)  # J(J+1) - diagonal
    off_up = np.where(live & (rows > 0), np.roll(off, 1, 0), 0.0)
    x, exps = np.ones(live.shape), np.zeros(live.shape, dtype=np.int32)  # row i is x[i] * 2**exps[i]
    for i in range(len(x) - 1):  # row 0 is 1; every later row is written here
        x[i + 1] = (gap[i] * x[i] - off_up[i] * x[i - 1]) / off[i]
        if np.abs(x[i + 1]).max() > 2.0**500:  # rescale only the rows still read
            big = np.abs(x[i + 1]) > 2.0**500
            x[i : i + 2, big] *= 2.0**-500
            exps[i:, big] += 500
    flip = (size - 1 - rows) % len(rows)  # the run at -M, row for row
    down, up = x[:, : size.size], np.take_along_axis(x[:, -size.size :], flip, 0)
    e_down, e_up = exps[:, : size.size], np.take_along_axis(exps[:, -size.size :], flip, 0)
    with np.errstate(divide="ignore", over="ignore"):  # log 0 past a column's end; rows not kept
        k = np.argmax(np.log2(np.abs(down)) + e_down + np.log2(np.abs(up)) + e_up, 0)
        x = np.where(rows <= k, np.ldexp(down / np.abs(down[k, cols]), e_down - e_down[k, cols]),
                     np.ldexp(up / (up[k, cols] * np.sign(down[k, cols])), e_up - e_up[k, cols]))
    odd = (two_m == 0) & (two_j1 % 2 == 0) & ((two_j1 + two_j2 + two_j) % 4 == 2)  # <j1 0; j2 0|J 0> = 0
    x[np.minimum(two_j1, two_j2)[odd] // 2, cols[odd]] = 0.0
    x /= np.sqrt(np.cumsum(x * x, axis=0)[-1])
    x.flags.writeable = False
    return x


_LNFACT = np.empty(0)  # ln k! for k < len(_LNFACT), grown by `_lnfact_table`
_LNFACT.flags.writeable = False


def _lnfact_table(size):
    """Read-only ln k! = lgamma(k+1) for at least k < size: the one table of
    the process, extended (never rebuilt) to at least twice its length when
    `size` outgrows it, so a sweep of rising sizes computes each entry once."""
    global _LNFACT
    have = len(_LNFACT)
    if size > have:
        grown = max(size, 2 * have)
        tail = np.fromiter(map(math.lgamma, range(have + 1, grown + 1)), float, grown - have)
        _LNFACT = np.concatenate([_LNFACT, tail])
        _LNFACT.flags.writeable = False
    return _LNFACT


def _stretched_pass(ja, jb):
    """(logs, starts): ln |<J_A m; J_B -m | J_A+J_B, 0>|**2, |m| <= min(J_A, J_B)
    ascending, of each pair of the int64 doubled spins `ja`, `jb`, column after
    column in one flat array, and each column's start.  Entry m is ln[C(2J_A, J_A-m)
    C(2J_B, J_B+m) / C(2J_A+2J_B, J_A+J_B)], each binomial from the process's one
    ln k! table.  No spin is checked: the pairs come from a checked cut or geometry."""
    mm = np.minimum(ja, jb)
    sizes = mm + 1
    ends = sizes.cumsum()
    starts = ends - sizes
    rank = np.arange(ends[-1]) - starts.repeat(sizes)  # of m within its column
    n = ja + jb
    lf = _lnfact_table(int(n.max()) + 1)
    half = n >> 1  # a shift, as every index here is >= 0: numpy's // costs more
    norm = lf[n] - lf[half] - lf[n - half]
    ka = ((ja + mm) >> 1).repeat(sizes) - rank  # J_A - m, m ascending
    kb = ((jb - mm) >> 1).repeat(sizes) + rank
    # ln (2J)! per pair, then repeated: the same floats as gathered per entry
    la, lb = lf[ja].repeat(sizes), lf[jb].repeat(sizes)
    ja, jb = ja.repeat(sizes), jb.repeat(sizes)
    logs = (la - lf[ka] - lf[ja - ka]) + (lb - lf[kb] - lf[jb - kb]) - norm.repeat(sizes)
    return logs, starts


# ---------------------------------------------------------------------------
# magnetization slice and two-site operators


def _check_codes(d, sites):
    """Refuse sites of d >= 2 states whose integer codes, site i carrying the base-d
    digit of weight d**i, overflow int64: all past 63 sites, so no huge d**sites is formed."""
    if sites > 63 or d**sites > np.iinfo(np.int64).max:
        raise ValueError(f"codes of {sites} sites with {d} local states overflow 64-bit integers")


def _slice_digits(two_s, sites, two_jz):
    """Digit rows of the fixed-magnetization slice, sorted by code."""
    d = two_s + 1
    local = 2 * np.arange(d) - two_s
    # Sites are placed from the most significant down, each row branching
    # into d rows in digit order, so the rows stay sorted by code; rows that
    # can no longer reach two_jz are pruned at every step.
    digits = np.zeros((1, 0), dtype=np.int8)
    need = np.array([two_jz], dtype=np.int64)
    for remaining in range(sites - 1, -1, -1):
        rest = (need[:, None] - local).ravel()
        keep = np.abs(rest) <= two_s * remaining
        new_digit = np.tile(np.arange(d, dtype=np.int8), len(digits))
        digits = np.column_stack([np.repeat(digits, d, axis=0), new_digit])[keep]
        need = rest[keep]
    return np.ascontiguousarray(digits[:, ::-1])


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 misses the entry of 2 and is refused
def configuration_space(two_s, sites, two_jz=0):
    """Sorted integer codes and digit table of the fixed-magnetization slice.

    Site i occupies the base-d digit of weight d**i; digit values 0..2s map to
    local two_m = 2*digit - 2s.  Both arrays are cached and read-only.
    """
    two_s, sites = _check_integer("two_s", two_s, 1), _check_integer("sites", sites, 1)
    two_jz = _check_integer("two_jz", two_jz)
    _check_codes(two_s + 1, sites)  # before the slice is enumerated
    digits = _slice_digits(two_s, sites, two_jz)
    codes = digits @ (two_s + 1) ** np.arange(sites, dtype=np.int64)
    codes.flags.writeable = False
    digits.flags.writeable = False
    return codes, digits


def _spin_matrices(two_s):
    d = two_s + 1
    m = (np.arange(d) - two_s / 2.0)  # ascending local magnetization
    sz = np.diag(m)
    sp = np.zeros((d, d))
    s = two_s / 2.0
    for k in range(d - 1):
        sp[k + 1, k] = math.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sm = sp.T
    return sz, sp, sm


@lru_cache(maxsize=None)
def _pair_terms(two_s, power):
    """Nonzero elements of (S_i . S_j)**power as a padded table.

    Entry [a, b, k] of the three (d, d, K) arrays gives the new digits of
    sites i and j and the amplitude of the k-th element in the column of
    digits (a, b); unused slots carry amplitude 0.  Digits are local
    magnetization indices 0..2s; all elements conserve the two-site
    magnetization.
    """
    sz, sp, sm = _spin_matrices(two_s)
    d = two_s + 1
    ss = np.kron(sz, sz) + 0.5 * (np.kron(sp, sm) + np.kron(sm, sp))
    op = np.linalg.matrix_power(ss, power).reshape(d, d, d, d)  # [oi, oj, a, b]
    nonzero = np.abs(op) > 1e-12
    width = int(nonzero.sum(axis=(0, 1)).max())
    new_i = np.zeros((d, d, width), dtype=np.int64)
    new_j = np.zeros((d, d, width), dtype=np.int64)
    amp = np.zeros((d, d, width))
    for a in range(d):
        for b in range(d):
            oi, oj = np.nonzero(nonzero[:, :, a, b])
            new_i[a, b, : len(oi)] = oi
            new_j[a, b, : len(oi)] = oj
            amp[a, b, : len(oi)] = op[oi, oj, a, b]
    for table in (new_i, new_j, amp):
        table.flags.writeable = False
    return new_i, new_j, amp


def bond_matrix_elements(two_s, digits, bonds, codes):
    """Matrix elements of sum_i coeff * (S_i . S_{i+dist})**power on a periodic chain.

    `bonds` holds (dist, coeff, power) triples, `digits` the column
    configurations and `codes` the sorted codes of the configurations they
    may be mapped to.  Returns COO triples (col, row, amp) with `col`
    indexing the rows of `digits` and `row` indexing `codes`; raises
    ValueError if a column is mapped to a configuration outside `codes`.
    """
    two_s = _check_integer("two_s", two_s, 1)
    digits = np.asarray(digits)
    sites = digits.shape[1]
    d = two_s + 1
    _check_codes(d, sites)
    weights = d ** np.arange(sites, dtype=np.int64)
    col_codes = digits @ weights
    # one empty entry each keeps the concatenation valid when no bond acts
    cols = [np.empty(0, dtype=np.int64)]
    new_codes = [np.empty(0, dtype=np.int64)]
    amps = [np.empty(0)]
    for dist, coeff, power in bonds:
        if coeff == 0.0:
            continue
        new_i, new_j, table = _pair_terms(two_s, power)
        second = (np.arange(sites) + dist) % sites
        partner = digits[:, second]
        col, site, k = np.nonzero(table[digits, partner])
        a, b = digits[col, site], partner[col, site]
        new_codes.append(
            col_codes[col]
            + (new_i[a, b, k] - a) * weights[site]
            + (new_j[a, b, k] - b) * weights[second[site]]
        )
        cols.append(col)
        amps.append(coeff * table[a, b, k])
    new_codes = np.concatenate(new_codes)
    row = np.searchsorted(codes, new_codes)
    if np.any(row == len(codes)) or np.any(codes[np.minimum(row, len(codes) - 1)] != new_codes):
        raise ValueError("the operator maps a configuration outside the given configuration set")
    return np.concatenate(cols), row, np.concatenate(amps)


def spin_squared_terms(two_s, sites):
    """Total J**2 as (diagonal, bonds): sites * s(s+1) plus S_i . S_j over all i != j."""
    two_s, sites = _check_integer("two_s", two_s, 1), _check_integer("sites", sites, 1)
    s = two_s / 2.0
    return sites * (s * (s + 1.0)), tuple((dist, 1.0, 1) for dist in range(1, sites))
