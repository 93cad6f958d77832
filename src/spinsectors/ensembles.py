"""Entanglement entropy of pure states and sector-ensemble averages.

Random states with fixed (J, J_z=0) are sampled without ever forming the
exponentially large sector basis: in the bipartite coupled basis a state is
one Gaussian matrix W made of blocks W^{J_A J_B} (one per admissible spin
pairing across the cut) and the reduced density matrix is block diagonal in
the subsystem magnetization m, with blocks cut from W and weighted by
Clebsch-Gordan coefficients.  The block-diagonal approximations reuse the same
draws: `sd1` zeroes the interference between different J_A, `sd2`
additionally keeps only the J_B = J - J_A pairings (renormalized), so paired
comparisons between the three ensembles are free of independent-sampling
noise.  All samples of one (L, J, cut) share the block shapes: sample i
takes one normal call from the seed sequence (seed, i), scattered into W
through a map the geometry caches.  A run is one list of stacks, each
worker's share of the samples cut into stacks of at most `STACK_BYTES` of W
(a W larger than that is a stack of one), and a process pool never has more
processes than stacks.  A stack is one job: one |W|**2 gather and norm pass, one
Gram product per Schmidt block and one `eigvalsh` call per Gram beyond 1 x 1.

Closed forms: the Page average, its leading terms with and without a U(1)
constraint, the exact J=0 sector sum, the sd2 sum, and the large-L
asymptotics of the J=0 and J=O(L) sectors.
"""

import math
import os
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain
from operator import mul

import numpy as np

from .asymptotics import multiplicity_rate
from .combinatorics import (
    HALF, _ballot_ratios, _check_exact_sites, _check_float_sites, _check_fraction, _check_integer,
    _check_spin_density, _check_spin_label, _check_zero_jz, _is_integer, _multiplicity_run)
from .special import digamma
from .su2 import _cg_solve, _stretched_pass

__all__ = [
    "EntropyEstimate",
    "entanglement_entropy",
    "bipartition_maps",
    "slice_entanglement_entropy",
    "schmidt_square_entropy",
    "page_average",
    "haar_average_leading",
    "fixed_filling_average",
    "singlet_average_exact",
    "singlet_average_asymptotic",
    "max_spin_entropy_asymptotic",
    "max_spin_state_entropy",
    "sd2_average_closed",
    "sd2_asymptotic",
    "paired_spin_crossover",
    "ensemble_entropy_samples",
    "random_state_average",
    "default_sample_count",
    "resolve_workers",
]

EIGENVALUE_FLOOR = 1e-14
ENSEMBLE_METHODS = ("full", "sd1", "sd2")
WORKERS_ENV = "SPINSECTORS_WORKERS"
# bytes of one Monte Carlo stack of W, stretched-column pass, ED run or CG table chunk's
# padded output (the chunk's solve holds ~13 times that: `cg_columns`)
STACK_BYTES = 1 << 20
# Spins per block of the exact J = 0 sum (`_singlet_weights`).  With its checks and weights
# it took 11.2, 9.9, 9.3, 9.6 and 10.4 ms at blocks of 8, 16, 32, 64 and 128 at (L, cut) =
# (10**4, 5000), and 9.1, 7.7, 7.2, 7.3 and 7.7 ms at (10**4, 2500) (2-core VM, Python 3.11)
SINGLET_BLOCK = 32


def _passes(costs):
    """(start, stop) of each pass over items of byte `costs`: the most consecutive
    items whose costs sum to at most STACK_BYTES, or one costlier item.  It plans
    the stretched-column passes and the ED runs; Monte Carlo stacks hold samples
    of one size, and CG table chunks are padded to their widest column, so their
    cost is no sum of item costs."""
    ends, bounds = list(accumulate(costs, initial=0)), [0]  # ends[k] sums the first k costs
    while bounds[-1] < len(ends) - 1:
        start = bounds[-1]
        bounds.append(max(bisect_right(ends, ends[start] + STACK_BYTES) - 1, start + 1))
    return list(zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# entropy kernels


def schmidt_square_entropy(lams):
    """-sum w ln w over the last axis of Schmidt squares or weights, each value
    below the floor dropped (taken as 1, whose ln is 0): a float for one
    spectrum, one value per row for a stack, each row one dot product."""
    lams = np.asarray(lams, dtype=float)
    kept = np.where(lams > EIGENVALUE_FLOOR, lams, 1.0)
    values = np.maximum(0.0 - np.vecdot(kept, np.log(kept)), 0.0)  # 0.0 - 0.0 is +0.0
    return float(values) if values.ndim == 0 else values


def _gram(x):
    """Gram matrix of the smaller side of each (stacked) trailing matrix of x."""
    xh = np.swapaxes(x.conj(), -1, -2)
    return x @ xh if x.shape[-2] <= x.shape[-1] else xh @ x


def _schmidt_squares(x):
    """Squared Schmidt values of each (stacked) trailing matrix of x, from its
    Gram matrix; rounding can leave them slightly negative, which
    `schmidt_square_entropy` drops with the rest below its floor.  A 1 x 1
    Gram is its own spectrum: LAPACK returns real(A(1,1)) for n = 1."""
    g = _gram(x)
    return g.real[..., 0] if g.shape[-1] == 1 else np.linalg.eigvalsh(g)


def _check_cut(sites, cut):
    """The checked (sites, cut) as Python ints."""
    sites, cut = _check_integer("sites", sites), _check_integer("cut", cut)
    if not 0 < cut < sites:
        raise ValueError(f"cut must satisfy 0 < cut < {sites}, got {cut}")
    return sites, cut


def _check_method(method):
    if method not in ENSEMBLE_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {ENSEMBLE_METHODS}")


def _check_normalized(state):
    """Refuse a state, or a column of a stack, whose norm is off 1 by more than
    1e-10, or by 4 sqrt(n) eps of its dtype if more: numpy sums a column's n
    squares in turn, in single precision measured off by up to ~0.26 sqrt(n) eps."""
    norms = np.atleast_1d(np.linalg.norm(state, axis=0))
    tol = max(1e-10, 4.0 * math.sqrt(len(state)) * np.finfo(norms.dtype).eps)
    off = norms[~(np.abs(norms - 1.0) <= tol)]  # a NaN norm is off too
    if off.size:
        raise ValueError(f"state is not normalized: |psi| = {float(off[0])}")


def entanglement_entropy(state, cut, local_dim=2):
    """Von Neumann entropy of the first `cut` sites of a product-basis state vector."""
    state = np.asarray(state)
    if not state.size:
        raise ValueError("state is empty")
    if state.ndim != 1:
        raise ValueError(f"state must be a 1-D array, got shape {state.shape}")
    local_dim = _check_integer("local_dim", local_dim, 2)
    sites = round(math.log(state.size, local_dim))
    if local_dim**sites != state.size:
        raise ValueError(f"state of length {state.size} is not a {local_dim}**L product state")
    cut = _check_cut(sites, cut)[1]
    _check_normalized(state)
    # at least double precision, as in the slice pass: a float32 state gives its cast's entropy
    state = state.astype(np.promote_types(state.dtype, float), copy=False)
    return schmidt_square_entropy(_schmidt_squares(state.reshape(local_dim**cut, -1)))


def bipartition_maps(configs, a_sites):
    """Index maps turning a slice state into per-m_A Schmidt blocks.

    Returns a list of (order, shape), one per subsystem magnetization: the
    block's shape and, for each of its entries in row-major order, the index
    of its configuration, or len(configs) for a pairing the slice lacks.
    Rows and columns are ranked lexicographically by their digits.  The
    configs must be distinct and share one total magnetization, and `a_sites`
    must hold distinct integer sites 0 <= i < configs.shape[1].
    """
    configs = np.asarray(configs)
    if configs.ndim != 2:
        raise ValueError(f"configs must be a 2-D array, got shape {configs.shape}")
    a_sites = list(a_sites)
    sites = configs.shape[1]
    for site in a_sites:
        if not _is_integer(site) or not 0 <= site < sites:
            raise ValueError(f"a_sites {a_sites} must hold integer sites 0 <= i < {sites}, got {site!r}")
    if len(set(a_sites)) < len(a_sites):
        raise ValueError(f"a_sites {a_sites} repeats a site")
    if len(set(configs.sum(axis=1).tolist())) > 1:  # then m_A does not fix m_B
        raise ValueError("configs differ in total magnetization")
    b_sites = [s for s in range(sites) if s not in a_sites]
    a_part = configs[:, a_sites]
    b_part = configs[:, b_sites]
    ma = a_part.sum(axis=1)
    blocks = []
    for val in sorted(set(ma.tolist())):  # np.unique(ma) would import numpy.ma
        sel = np.nonzero(ma == val)[0]
        ua, rows = np.unique(a_part[sel], axis=0, return_inverse=True)
        ub, cols = np.unique(b_part[sel], axis=0, return_inverse=True)
        entries = rows * len(ub) + cols
        order = np.full(len(ua) * len(ub), len(configs))
        order[entries] = sel
        if not np.array_equal(order[entries], sel):
            raise ValueError("configs repeat a configuration")
        blocks.append((order, (len(ua), len(ub))))
    return blocks


def slice_entanglement_entropy(state, configs, a_sites):
    """Entanglement entropy of a state on a magnetization-resolved slice.

    `state` is a vector over `configs` (result: a float) or a column stack of
    them (result: one entropy per column).  `a_sites` lists the subsystem
    sites (need not start at 0); the reduced density matrix is diagonalized
    block by block in the subsystem magnetization.
    """
    state = np.asarray(state)
    if not 1 <= state.ndim <= 2:
        raise ValueError(f"state must be a vector or a column stack, got shape {state.shape}")
    if len(state) != len(configs):
        raise ValueError(f"state of length {len(state)} does not match {len(configs)} configurations")
    _check_normalized(state)
    states = state.reshape(len(state), -1)
    padded = np.vstack([states, np.zeros_like(states[:1])])  # pairings the slice lacks read 0
    values = np.zeros(states.shape[1])
    for order, shape in bipartition_maps(configs, a_sites):
        # a C-ordered stack: a strided view of padded[order].T rounds the Gram differently
        blocks = np.empty((len(values),) + shape, dtype=complex if np.iscomplexobj(states) else float)
        blocks.reshape(len(values), -1)[...] = padded[order].T
        values += schmidt_square_entropy(_schmidt_squares(blocks))
    return values if state.ndim == 2 else float(values[0])


# ---------------------------------------------------------------------------
# closed forms


def _block_average(blocks, d):
    """Average entropy over a direct sum of Page blocks, exact in the integers.

    `blocks` yields (n_A, n_B, d_b/d, S_w), block b holding d_b = n_A n_B of
    d = sum d_b states (passed in): sum_b (d_b/d) [S_w + S_Page(n_A, n_B) +
    psi(d+1) - psi(d_b+1)], with the psi(d_b+1) of S_Page cancelled.
    """
    psi_d = digamma(d + 1)
    total = 0.0
    for na, nb, weight, s_w in blocks:
        lo, hi = (na, nb) if na <= nb else (nb, na)
        total += weight * (psi_d - digamma(hi + 1) - (lo - 1) / (2 * hi) + s_w)
    return total


def page_average(dim_a, dim_b):
    """Haar-average entanglement entropy of a dim_a x dim_b bipartite space."""
    for name, dim in (("dim_a", dim_a), ("dim_b", dim_b)):
        if not (_is_integer(dim) or isinstance(dim, float) and dim.is_integer()) or dim < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {dim!r}")
    return _block_average([(int(dim_a), int(dim_b), 1.0, 0.0)], int(dim_a) * int(dim_b))


def _folded_fraction(fraction):
    """f = L_A/L as a Fraction folded into (0, 1/2] by the mirror f -> 1 - f."""
    f = _check_fraction("fraction", fraction)
    if not 0 < f < 1:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    return min(f, 1 - f)


def _mirror_cut(sites, cut):
    """The checked sites and the smaller side of the cut, as Python ints."""
    sites, cut = _check_cut(sites, cut)
    return sites, min(cut, sites - cut)


def _fraction_cut(fraction, sites):
    """The cut round(f L) of L = `sites` at f = `fraction`, refused if a side is empty."""
    cut = round(_check_fraction("fraction", fraction) * sites)
    if not 0 < cut < sites:
        raise ValueError(f"fraction {fraction} gives an empty bipartition at L={sites}")
    return cut


def haar_average_leading(sites, cut, local_dim=2):
    """Leading Page terms: L_A ln d, minus 1/2 exactly at half bipartition."""
    local_dim = _check_integer("local_dim", local_dim, 2)
    sites, cut = _mirror_cut(sites, cut)
    _check_float_sites(sites)
    return cut * math.log(local_dim) - (0.5 if 2 * cut == sites else 0.0)


def fixed_filling_average(filling, sites, cut):
    """Leading average entropy terms for random states at fixed U(1) filling."""
    n = _check_fraction("filling", filling)
    if not 0 < n < 1:
        raise ValueError(f"filling must lie in (0, 1), got {filling}")
    sites, cut = _mirror_cut(sites, cut)
    _check_float_sites(sites)
    f = Fraction(cut, sites)
    m = 1 - n
    nf, mf = float(n), float(m)
    # ln n and ln(1-n) stay finite for every n in (0, 1): where a float
    # underflows to 0.0, its ln comes from the Fraction's integers
    log_n, log_m = (math.log(xf) if xf else math.log(x.numerator) - math.log(x.denominator)
                    for x, xf in ((n, nf), (m, mf)))
    value = -(nf * log_n + mf * log_m) * cut
    if f == Fraction(1, 2):
        value -= math.sqrt(nf * mf / (2 * math.pi)) * abs(log_m - log_n) * math.sqrt(sites)
        if n == Fraction(1, 2):
            value -= 0.5
    value += (float(f) + math.log(1 - float(f))) / 2.0
    return value


def singlet_average_exact(sites, cut):
    """Exact average entanglement entropy of random J=0, J_z=0 sector states.

    Finite sum over the subsystem spin J_A: each (J_A = J_B) pairing
    contributes a Page term for its multiplicity block plus the ln(1+2J_A)
    entropy of the uniform singlet Clebsch-Gordan weights.
    """
    sites, cut = _mirror_cut(sites, cut)
    geo = CoupledPairGeometry(sites, 0, cut)
    # a block whose weight rounds to 0.0 adds exactly 0.0 to the total: not read
    blocks = ((geo.na[ja], geo.nb[ja], w, math.log(1.0 + ja)) for ja, w in geo.weights.items() if w)
    return _block_average(blocks, geo.sector_dim)


def singlet_average_asymptotic(sites, fraction):
    """Leading large-L terms of the J=0 sector average at fixed f = L_A/L."""
    sites = _check_float_sites(_check_integer("sites", sites, 1))
    f = _folded_fraction(fraction)
    ff = float(f)
    value = math.log(2.0) * ff * sites + 1.5 * (ff + math.log(1.0 - ff))
    if f == Fraction(1, 2):
        value -= 0.5
    return value


def max_spin_entropy_asymptotic(sites, fraction):
    """Leading entropy of the unique J = L/2 state: (1/2) ln[pi e f(1-f) L / 2]."""
    sites = _check_float_sites(_check_integer("sites", sites, 1))
    ff = float(_folded_fraction(fraction))
    return 0.5 * math.log(math.pi * math.e * ff * (1.0 - ff) * sites / 2.0)


def max_spin_state_entropy(sites, cut):
    """Exact entanglement entropy of the J = L/2, J_z = 0 spin-1/2 state.

    The state is the uniform superposition of all zero-magnetization
    configurations; its Schmidt weights are the squared stretched
    Clebsch-Gordan coefficients, evaluated in log domain.
    """
    sites, cut = _check_cut(sites, cut)
    _check_exact_sites(sites)
    _check_zero_jz(HALF, sites)
    return _stretched_entropies([(cut, sites - cut)])[0]


def _stretched_entropies(pairs):
    """-sum c_m**2 ln c_m**2 of each (two_ja, two_jb) pair's stretched column, one
    `_stretched_pass` and one segmented sum per pass; an entry costs 128 bytes, about
    the 8-byte arrays the kernel and the sum hold, so a pass keeps 8,192 entries at
    the default STACK_BYTES.  The pairs come from a checked cut or geometry."""
    # fromiter: np.array of a list of tuples costs ~1.5 us more per sd2 row
    ja, jb = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2).T
    out = []
    for start, stop in _passes((128 * (np.minimum(ja, jb) + 1)).tolist()):
        lw, starts = _stretched_pass(ja[start:stop], jb[start:stop])
        out += np.add.reduceat(np.exp(lw) * -lw, starts).tolist()
    return out


# ---------------------------------------------------------------------------
# coupled-pair geometry for the sector ensembles (spin-1/2, J_z = 0)


class CoupledPairGeometry:
    """Admissible (J_A, J_B) pairings of a J_z=0 spin-1/2 sector bipartition.

    Holds the multiplicities of both blocks; the bounds (lo, hi) of each
    J_A's run of partners J_B (`partner_bounds`) and the CG columns are
    formed on demand.  The identity sum_{pairs} n_A n_B = n_J is checked
    exactly, and `weights` keeps each J_A's share of n_J.  At J > 0 each
    J_A's block dimension is one big-integer product; at J = 0 the sum goes
    by blocks of spins, stepped by the ballot ratio, which every stored n_A
    and n_B is checked against (`_singlet_weights`).

    It owns the layout of a coupled state W: row groups follow J_A ascending
    (`rows`), column groups J_B ascending (`cols`), so block m of the Schmidt
    matrix is a CG-weighted suffix W[r0:, c0:] (`m_blocks`, which keeps m > 0
    and the two flip-parity classes of m = 0), and Monte Carlo fills the blocks
    of W in `pairs` order (`draw_map`).  The layout and `pairs` are built
    lazily, as the closed forms use this geometry at L up to 10**4.
    """

    def __init__(self, sites, two_j, cut):
        sites, cut = _check_cut(sites, cut)  # Python ints: numpy ones overflow in exact sums
        _check_exact_sites(sites)
        _check_zero_jz(HALF, sites)
        two_j = _check_spin_label(HALF, sites, two_j)[1]  # even, as L is: J_z = 0 is admissible
        self.sites, self.cut, self.two_j = sites, cut, two_j
        cut_b = sites - cut
        ja_lo, ja_hi = max(cut % 2, two_j - cut_b), min(cut, two_j + cut_b)
        self.ja_list = list(range(ja_lo, ja_hi + 1, 2))
        # the union of the runs of J_A's partners (`partner_bounds`), which overlap
        jb_lo, jb_hi = max(cut_b % 2, two_j - ja_hi, ja_lo - two_j), min(cut_b, two_j + ja_hi)
        self.jb_list = list(range(jb_lo, jb_hi + 1, 2))
        na = self.na = _multiplicity_run(cut, ja_lo, ja_hi)
        # at cut = L - cut both sides span the same spins, so the runs are equal
        nb = self.nb = na if cut == cut_b else _multiplicity_run(cut_b, jb_lo, jb_hi)
        expected = _multiplicity_run(sites, two_j, two_j)[two_j]  # the label is checked above
        if two_j:  # n_B over J_A's partners (`partner_bounds`): upto[k] sums the first k
            upto = [0, *accumulate(nb.values())]
            dims = [na[ja] * (upto[(min(cut_b, two_j + ja) - jb_lo) // 2 + 1]
                              - upto[(abs(two_j - ja) - jb_lo) // 2]) for ja in self.ja_list]
            total, weights = sum(dims), [dim / expected for dim in dims]
        else:  # J_B = J_A
            total, weights = _singlet_weights(cut, cut_b, na, nb, expected)
        if total != expected:  # not an assert: the guard must survive python -O
            raise AssertionError(f"sum n_A n_B = {total} != n_J = {expected}")
        self.weights = dict(zip(self.ja_list, weights))  # == n_A n_B / sector_dim
        self.sector_dim = total

    @cached_property
    def partner_bounds(self):
        """J_A's partners |J - J_A| <= J_B <= J + J_A: one run (lo, hi) of
        `jb_list` per J_A (for Monte Carlo)."""
        cut_b, two_j = self.sites - self.cut, self.two_j
        return {ja: (abs(two_j - ja), min(cut_b, two_j + ja)) for ja in self.ja_list}

    @cached_property
    def m_max(self):
        """Largest |m| of a Schmidt block (for Monte Carlo)."""
        return max(min(ja, hi) for ja, (_, hi) in self.partner_bounds.items())

    @cached_property
    def pairs(self):
        """Every (J_A, J_B) pairing, J_A then J_B ascending (for Monte Carlo)."""
        return [(ja, jb) for ja, (lo, hi) in self.partner_bounds.items()
                for jb in range(lo, hi + 1, 2)]

    @cached_property
    def cg_columns(self):
        """Read-only c_m(J; J_A, J_B) of each pairing, m = min(J_A, J_B) descending, then 0,
        solved by min(J_A, J_B) in consecutive chunks whose padded columns fit in STACK_BYTES.
        That bounds the output only: a chunk's solve holds ~13 arrays of its shape (13.5 MB at 1 MiB)."""
        order, starts, columns = sorted(self.pairs, key=min), [0], {}
        for k, pair in enumerate(order):
            if k > starts[-1] and 8 * (k + 1 - starts[-1]) * (min(pair) + 1) > STACK_BYTES:
                starts.append(k)
        for a, b in zip(starts, starts[1:] + [len(order)]):
            columns.update(zip(order[a:b], _cg_solve(*np.array(order[a:b]).T, self.two_j, 0).T))
        return {pair: columns[pair] for pair in self.pairs}

    def cg_coefficient(self, two_ja, two_jb, two_m):
        """c_m(J; J_A, J_B) of spins from `ja_list` and `jb_list`, m of J_A's parity:
        zero off the triangle J_A + J_B >= J >= |J_A - J_B| and for |m| > min(J_A, J_B)."""
        column, mm = self.cg_columns.get((two_ja, two_jb)), min(two_ja, two_jb)
        return float(column[(mm - two_m) // 2]) if column is not None and abs(two_m) <= mm else 0.0

    @cached_property
    def sd2_pairs(self):
        """The J_B = J - J_A pairings that sd2 keeps."""
        pairs = [(ja, self.two_j - ja) for ja in self.ja_list if self.two_j - ja in self.nb]
        if not pairs:
            raise ValueError(
                f"no J_B = J - J_A pairing exists for L={self.sites}, "
                f"two_j={self.two_j}, cut={self.cut}"
            )
        return pairs

    @cached_property
    def rows(self):
        """Row slice of W for each J_A."""
        return _group_slices(self.ja_list, self.na)

    @cached_property
    def cols(self):
        """Column slice of W for each J_B."""
        return _group_slices(self.jb_list, self.nb)

    @property
    def shape(self):
        return sum(self.na.values()), sum(self.nb.values())

    @cached_property
    def draw_map(self):
        """(positions, runs): the flat positions in W of every pair's block,
        pairs in `pairs` order and each block row-major, and the (start, stop)
        of each pair's run of them."""
        width = self.shape[1]
        blocks = [
            (np.arange(self.rows[ja].start, self.rows[ja].stop)[:, None] * width
             + np.arange(self.cols[jb].start, self.cols[jb].stop)).ravel()
            for ja, jb in self.pairs
        ]
        ends = list(accumulate(block.size for block in blocks))
        return np.concatenate(blocks), list(zip([0] + ends[:-1], ends))

    @cached_property
    def complex_draw_map(self):
        """Positions in the float view of a complex W: per pair, the real parts
        of its block, then its imaginary parts."""
        positions, runs = self.draw_map
        return np.concatenate(
            [2 * positions[start:stop] + part for start, stop in runs for part in (0, 1)]
        )

    @cached_property
    def m_blocks(self):
        """The blocks of the Schmidt matrix that are diagonalized, each as (index,
        weights, sd1_parts, copies): w[index] is the part of W it weights,
        `weights` (read-only, of w[index]'s shape) holds c_m(J; J_A, J_B) at
        every entry of each (J_A, J_B) group, `sd1_parts` the (rows, cols) of
        each J_A and its nonzero columns, the partners |J - J_A| <= J_B <= J +
        J_A, and `copies` the number of times its spectrum occurs in rho_A.

        <J_A -m; J_B m|J 0> = (-1)^(J_A+J_B-J) <J_A m; J_B -m|J 0> makes block
        -m a sign-flipped copy of block m, so blocks m > 0 (suffixes W[r0:, c0:])
        count twice.  At m = 0 the same identity leaves rows of even J_A
        coupled only to columns with J_B = J (mod 2), and odd J_A to the rest:
        block 0 is diagonalized as these two parity classes.
        """
        out = []
        for two_m in range(self.m_max, 0, -2):
            ja_rows = [ja for ja in self.ja_list if ja >= two_m]
            jb_cols = [jb for jb in self.jb_list if jb >= two_m]
            r0, c0 = self.rows[ja_rows[0]].start, self.cols[jb_cols[0]].start
            out.append(self._m_block(two_m, ja_rows, jb_cols, np.s_[r0:, c0:], 2))
        if self.cut % 2:  # half-integer J_A: no m = 0 block
            return out
        for parity in (0, 1):
            ja_rows = [ja for ja in self.ja_list if ja // 2 % 2 == parity]
            jb_cols = [jb for jb in self.jb_list if (jb - self.two_j) // 2 % 2 == parity]
            if ja_rows:
                index = np.ix_(
                    np.r_[tuple(self.rows[ja] for ja in ja_rows)],
                    np.r_[tuple(self.cols[jb] for jb in jb_cols)],
                )
                out.append(self._m_block(0, ja_rows, jb_cols, index, 1))
        return out

    def _m_block(self, two_m, ja_rows, jb_cols, index, copies):
        table = [[self.cg_coefficient(a, b, two_m) for b in jb_cols] for a in ja_rows]
        weights = np.repeat(np.repeat(table, [self.na[a] for a in ja_rows], 0),
                            [self.nb[b] for b in jb_cols], 1)
        weights.flags.writeable = False
        cols = _group_slices(jb_cols, self.nb)
        sd1_parts = []
        for ja, rows in _group_slices(ja_rows, self.na).items():
            lo, hi = self.partner_bounds[ja]
            partners = [jb for jb in jb_cols if lo <= jb <= hi]  # one run of jb_cols
            sd1_parts.append((rows, slice(cols[partners[0]].start, cols[partners[-1]].stop)))
        return index, weights, sd1_parts, copies


def _singlet_weights(cut, cut_b, na, nb, expected):
    """(sum, weights) of the J = 0 pairings J_A = J_B, ascending: the exact sum of
    n_A n_B, and each n_A n_B / n_J (`expected`) correctly rounded.

    Each run's stored neighbours are checked against the ballot ratio first; the
    step from one product to the next is then r = (d_a d_b) / (u_a u_b).  The sum
    goes by blocks of SINGLET_BLOCK spins: a block from spin s sums to n_A n_B(s)
    P / Q, with P / Q = 1 + r_1 (1 + r_2 (..)) built by Horner from the small
    integers, one big multiply and one exact divmod per block.  A weight is the
    fraction num / den, equal to n_A n_B / n_J: its block's first product over
    n_J, stepped by the same ratios, one small multiply of each and one
    correctly rounded division per spin.  r only falls as 2J_A rises, so once a
    weight is 0.0 and r < 1 every later one is 0.0 as well, and is not divided.
    """
    spins, a, b = list(na), list(na.values()), list(nb.values())
    up_a, down_a = _ballot_ratios(cut, spins[1:])
    # one run at the half cut
    up_b, down_b = (up_a, down_a) if nb is na else _ballot_ratios(cut_b, spins[1:])
    for i, ua, da, ub, db in zip(range(1, len(a)), up_a, down_a, up_b, down_b):
        # not an assert: the guard must survive python -O
        if a[i - 1] * da != a[i] * ua or nb is not na and b[i - 1] * db != b[i] * ub:
            raise AssertionError(f"n_J at 2J = {spins[i - 1]}, {spins[i]} break the ballot ratio")
    # r = down[k] / up[k] steps spin k - 1 to spin k
    up, down = [1, *map(mul, up_a, up_b)], [1, *map(mul, down_a, down_b)]
    starts = range(0, len(a), SINGLET_BLOCK)
    firsts, total = [a[s] * b[s] for s in starts], 0
    for s, first in zip(starts, firsts):
        p = q = 1
        for k in range(min(s + SINGLET_BLOCK, len(a)) - 1, s, -1):
            p, q = up[k] * q + down[k] * p, up[k] * q
        part, rest = divmod(first * p, q)
        if rest:  # not an assert: the guard must survive python -O
            raise AssertionError(f"the products from 2J = {spins[s]} on do not sum to an integer")
        total += part
    weights = []
    for k in range(len(a)):
        if k and not weights[-1] and down[k] < up[k]:
            break
        if k % SINGLET_BLOCK:
            num, den = num * down[k], den * up[k]
        else:
            num, den = firsts[k // SINGLET_BLOCK], expected
        weights.append(num / den)
    return total, weights + [0.0] * (len(a) - len(weights))


def _group_slices(spins, counts):
    """Consecutive slices of counts[s] entries, one per spin in order."""
    ends = accumulate(counts[s] for s in spins)
    return {s: slice(end - counts[s], end) for s, end in zip(spins, ends)}


@lru_cache(maxsize=256)
def coupled_geometry(sites, two_j, cut):
    """The geometry Monte Carlo reads for every sample, built once per process.
    The closed forms read theirs once per call and build it uncached."""
    return CoupledPairGeometry(sites, two_j, cut)


# ---------------------------------------------------------------------------
# Monte Carlo over random sector states


def _draw_stack(geo, w, seed, stack):
    """Draw the samples of the range `stack` into the zeroed, C-contiguous
    stack of W `w`, with complex coefficients if `w` is complex, and normalize
    each.

    Sample i takes one `standard_normal` call from the seed sequence (seed, i),
    which fills every block through `geo.draw_map` in the order of drawing the
    blocks pair by pair.  A seed sequence reads a tuple of ints as the
    concatenation of each int's little-endian 32-bit words (one zero word for
    0), so the seed's words, split once, followed by i's give the same stream.
    The stack's |w|**2 are gathered into one C-ordered array, whose pair runs
    are each summed once for the whole stack; each sample adds its run sums in
    pair order, so W is bitwise that of the pair-by-pair draw.
    """
    def words(n):
        return [n >> bit & 0xFFFFFFFF for bit in range(0, max(n.bit_length(), 1), 32)]

    positions, runs = geo.draw_map
    scatter = geo.complex_draw_map if np.iscomplexobj(w) else positions
    flats, head = w.reshape(len(w), -1), words(int(seed))
    for flat, i in zip(flats, stack):
        rng = np.random.default_rng(np.array(head + words(i), np.uint32))
        flat.view(float)[scatter] = rng.standard_normal(scatter.size)
    # C-ordered, as flats[:, positions] is not: the run sums round by the layout
    squares = np.square(np.abs(flats.take(positions, axis=1)))
    # np.add.reduce is np.sum without its dispatch
    totals = sum(np.add.reduce(squares[:, start:stop], axis=1) for start, stop in runs)
    for sample, total in zip(w, totals.tolist()):
        sample *= 1.0 / math.sqrt(total)


def _entropies_from_blocks(geo, w, methods):
    """Entropies of the requested methods for one W or a stack of them (leading
    axis): floats for one W, arrays of one value per sample for a stack.

    Each Schmidt block is diagonalized as soon as its Gram is formed, by one
    `eigvalsh` call over the stack unless 1 x 1, and its entropy summed at once."""
    out = dict.fromkeys(methods, 0.0)
    if "full" in out or "sd1" in out:
        buf = np.empty(w.size, dtype=w.dtype)  # reused by every m: fresh pages cost more
        for index, weights, sd1_parts, copies in geo.m_blocks:
            shape = w.shape[:-2] + weights.shape
            x = np.multiply(weights, w[(Ellipsis,) + index], out=buf[: math.prod(shape)].reshape(shape))
            if "full" in out:
                out["full"] += copies * schmidt_square_entropy(_schmidt_squares(x))
            for part in sd1_parts if "sd1" in out else ():
                out["sd1"] += copies * schmidt_square_entropy(_schmidt_squares(x[(Ellipsis,) + part]))
    if "sd2" in out:
        blocks = {pair: w[..., geo.rows[pair[0]], geo.cols[pair[1]]] for pair in geo.sd2_pairs}
        trace = sum(np.sum(np.abs(block) ** 2, axis=(-2, -1)) for block in blocks.values())
        for pair, block in blocks.items():
            lam = _schmidt_squares(block) / trace[..., None]
            outer = geo.cg_columns[pair][min(pair)::-1, None] ** 2 * lam[..., None, :]  # m ascending
            out["sd2"] += schmidt_square_entropy(outer.reshape(lam.shape[:-1] + (-1,)))
    return out


def _stack_entropies(sites, two_j, cut, seed, methods, complex_coefficients, stack):
    """Entropies of the samples in the range `stack`, drawn into one stack of W
    that shares one Schmidt pass."""
    geo = coupled_geometry(sites, two_j, cut)
    w = np.zeros((len(stack),) + geo.shape, dtype=complex if complex_coefficients else float)
    _draw_stack(geo, w, seed, stack)
    return _entropies_from_blocks(geo, w, methods)


def resolve_workers(n_items, item_work):
    """Worker count for an embarrassingly parallel loop of `n_items` items.

    Controlled by the environment variable SPINSECTORS_WORKERS; when unset, a
    loop runs serially below 256 items or below 2**21 of work n_items *
    item_work (~0.2 s at ~0.1 us a unit; a pool takes ~0.1 s to start), and
    on up to four processes above both.  The item floor stays because the
    forked workers keep the parent's BLAS threads, which oversubscribe the
    cores unless pinned to one.  Results do not depend on the count.
    """
    n_items = _check_integer("n_items", n_items, 0)
    item_work = _check_integer("item_work", item_work, 0)
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {env!r}")
    elif n_items < 256 or n_items * item_work < 1 << 21:
        workers = 1
    else:
        workers = min(4, os.cpu_count() or 1)
    return max(1, min(workers, n_items))


def ensemble_entropy_samples(
    sites, two_j, cut, samples, seed, methods=("full",), complex_coefficients=False, workers=None
):
    """Per-sample entanglement entropies of the requested sector ensembles.

    All requested methods are evaluated on the same Gaussian draws, so
    cross-method differences are paired.  Sample i is generated from the seed
    sequence (seed, i), making the output independent of `workers` and of any
    parallel schedule.
    """
    sites, two_j, cut = map(_check_integer, ("sites", "two_j", "cut"), (sites, two_j, cut))
    samples = _check_integer("samples", samples, 1)
    if samples > 2**53:  # past it the float64 bounds of the workers' shares are not exact
        raise ValueError(f"samples must be at most 2**53, got {samples}")
    seed = _check_integer("seed", seed, 0)
    if isinstance(methods, str):
        raise ValueError(f"methods must be a sequence of names from {ENSEMBLE_METHODS}, got {methods!r}")
    methods = tuple(methods)
    if not methods:
        raise ValueError(f"methods is empty, expected some of {ENSEMBLE_METHODS}")
    for method in methods:
        _check_method(method)
    if not isinstance(complex_coefficients, (bool, np.bool_)):
        raise ValueError(f"complex_coefficients must be a bool, got {complex_coefficients!r}")
    entries = math.prod(coupled_geometry(sites, two_j, cut).shape)
    if workers is None:
        # a sample costs ~0.1 us per entry of W plus ~50 us of bookkeeping, 512 entries' worth
        workers = resolve_workers(samples, entries + 512)
    workers = _check_integer("workers", workers, 1)
    # each worker's share of the samples, cut into stacks of at most STACK_BYTES of W: one
    # cut of all the samples would leave a pool unbalanced when a stack holds many samples
    size = max(1, STACK_BYTES // (entries * (16 if complex_coefficients else 8)))
    bounds = np.linspace(0, samples, workers + 1).astype(int).tolist()
    stacks = [range(lo, min(lo + size, b)) for a, b in zip(bounds[:-1], bounds[1:])
              for lo in range(a, b, size)]
    job = partial(_stack_entropies, sites, two_j, cut, seed, methods, complex_coefficients)
    pool_size = min(workers, len(stacks))
    if pool_size == 1:
        parts = list(map(job, stacks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                parts = list(pool.map(job, stacks, chunksize=math.ceil(len(stacks) / pool_size)))
        except OSError as error:
            warnings.warn(
                f"process pool for {pool_size} workers failed ({error!r}); sampling serially",
                RuntimeWarning,
                stacklevel=2,
            )
            parts = list(map(job, stacks))
    out = {m: np.concatenate([p[m] for p in parts]) for m in methods}
    for method, values in out.items():
        # sd1 pinches rho_A in J_A, which can raise its entropy up to L_A ln 2
        name, n = ("L_A", cut) if method == "sd1" else ("min(L_A, L_B)", min(cut, sites - cut))
        if values.min() < 0.0 or values.max() > n * math.log(2.0) + 1e-9:
            raise RuntimeError(f"sampled {method} entropy violates the {name} ln 2 bound")
    return out


@dataclass(frozen=True)
class EntropyEstimate:
    """Monte Carlo entropy statistics with seed provenance."""

    mean: float
    std_dev: float
    sem: float
    samples: int
    method: str
    seed: int

    @classmethod
    def from_samples(cls, values, method, seed):
        values = np.asarray(values)
        n = values.size
        if not n:
            raise ValueError("an estimate needs at least one sample")
        std = float(values.std(ddof=1)) if n > 1 else 0.0
        return cls(float(values.mean()), std, std / math.sqrt(n), n, method, seed)


def random_state_average(sites, two_j, cut, samples, seed, complex_coefficients=False, workers=None):
    """Average entropy of Gaussian random states of the full (J, J_z=0) sector."""
    values = ensemble_entropy_samples(
        sites, two_j, cut, samples, seed, ("full",), complex_coefficients, workers
    )["full"]
    return EntropyEstimate.from_samples(values, "full", seed)


def default_sample_count(method, sites):
    """Sample counts used for production sweeps: 1000 at small L, 100 beyond."""
    _check_method(method)
    _check_integer("sites", sites, 1)
    if method == "full":
        return 1000 if sites <= 20 else 100
    return 1000 if sites <= 30 else 100


# ---------------------------------------------------------------------------
# block-diagonal closed forms


def sd2_average_closed(sites, two_j, cut):
    """Closed-form sd2 average: Page terms plus Clebsch-Gordan weight entropy.

    Sum over J_A of (d_JA/d) [S_CG(J_A) + S_Page(n_A, n_B) + psi(d+1) -
    psi(d_JA+1)] with d_JA = n_A(J_A) n_B(J-J_A); S_CG is the entropy of the
    stretched column, as in `max_spin_state_entropy`.
    """
    geo = CoupledPairGeometry(sites, two_j, cut)
    pairs = geo.sd2_pairs
    dims = [geo.na[a] * geo.nb[b] for a, b in pairs]  # each product formed once
    d, blocks = sum(dims), zip(pairs, dims, _stretched_entropies(pairs))
    return _block_average([(geo.na[a], geo.nb[b], dim / d, s) for (a, b), dim, s in blocks], d)


def paired_spin_crossover(fraction, j):
    """Subsystem spin density where the two block multiplicities cross.

    Solves f*rate(x/f) = (1-f)*rate((j-x)/(1-f)) for x on the asymptotic rate
    functions (f taken <= 1/2 by mirror symmetry) over the admissible interval
    max(0, j - (1-f)) <= x <= j*f.  Returns None when the two sides never cross
    there; at f = 1/2 the crossover sits exactly at the Gaussian center x = j/2,
    and at j = 1 the interval is the one point x = f.
    """
    f = _folded_fraction(fraction)
    _check_spin_density(j)
    ff = float(f)
    if f == Fraction(1, 2) or j == 1.0:
        return j * ff  # the Gaussian center; at j = 1 the only admissible x

    def gap(x):  # rounding at the bracket ends can carry a density past 1
        return ff * multiplicity_rate(HALF, min(x / ff, 1.0)) - (1.0 - ff) * multiplicity_rate(
            HALF, min((j - x) / (1.0 - ff), 1.0)
        )

    lo, hi = max(0.0, j - (1.0 - ff)), j * ff
    if gap(lo) <= 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def sd2_asymptotic(sites, fraction, j):
    """Leading large-L terms of the sd2 average at spin density j = 2J/L.

    Volume term rate(j) f L, a sqrt(L) correction present only at f = 1/2,
    the ln L term of the maximal-spin state, and an O(1) remainder; at j = 1
    everything except the maximal-spin terms vanishes.
    """
    sites = _check_float_sites(_check_integer("sites", sites, 1))
    f = _folded_fraction(fraction)
    _check_spin_density(j)
    ff = float(f)
    if j == 1.0:
        return max_spin_entropy_asymptotic(sites, f)
    value = multiplicity_rate(HALF, j) * ff * sites
    # ln((1+j)/(1-j)) = 2 atanh(j), and the log of the j**1.5 product a sum of
    # logs: both stay exact as j -> 0, where the ratio rounds to 1 and j**1.5 to 0
    ln_ratio = 2.0 * math.atanh(j)
    if f == Fraction(1, 2):
        value -= math.sqrt(1.0 - j * j) * ln_ratio / (2.0 * math.sqrt(2.0 * math.pi)) * math.sqrt(sites)
    value += max_spin_entropy_asymptotic(sites, f)
    value += math.log(2.0) + 1.5 * math.log(j) - 0.5 * math.log1p(-j * j)
    value -= (1.0 - 2.0 * ff * (1.0 - j)) / (2.0 * j) * ln_ratio
    value += (ff + math.log(1.0 - ff)) / 2.0
    return value
