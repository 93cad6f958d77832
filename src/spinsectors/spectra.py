"""Exact diagonalization of SU(2)-symmetric chains in real (k, J) subspaces.

Spin-1/2 chains carry nearest plus next-nearest Heisenberg exchange with
relative strength `coupling` (integrable at 0); spin-1 chains carry nearest
Heisenberg exchange plus a biquadratic term of strength `coupling`
(integrable at 1).  Both are diagonalized in the zero-magnetization sector,
block by block in the total quasimomentum k_n = 2 pi n / L and, inside each
block, in every J**2 eigenspace, so each eigenstate carries its total spin.

Each block is real in a basis U whose vectors combine at most two momentum
states (`_Block`): at k = 0, pi the momentum basis itself, at other k the
basis fixed by P K, the site reflection P composed with complex conjugation
K in the product basis, which keeps k and commutes with H and J**2.  J**2
and each bond term of H are one `_bond_term` table over the translation
orbits, which `_real_block` scatters straight into each block's real basis,
so no complex operator matrix is formed.

Everything that does not depend on the coupling is cached per chain: the
real bases, the real J**2 eigenbasis Q_J of every (k, J) subspace, the
projection Q_J^T B Q_J of every bond term B of H with its leakage
certificate, and the Schmidt maps of each cut (`_cut_maps`), which list each
Schmidt block's configurations in row-major order.  A coupling then costs one
real n_J-sized solve per subspace.  The chain is worked through in runs of
consecutive momentum blocks whose Schmidt stacks fit in
`ensembles.STACK_BYTES` together, planned by `ensembles._passes`, which also
plans the closed forms' stretched-column passes.  A run solves its subspaces
of one size by one `eigh` call and makes one Schmidt pass
(`_schmidt_entropies`) over the central states of all its blocks, each stack
filled by one gather per block and diagonalized by one `eigvalsh` call per
flip class past 1 x 1; its records take entropies once the pass is done.  LAPACK and BLAS run at most
once per matrix of a stack, so the records are bitwise those of a block by
block solve.

The Schmidt pass is reduced by two symmetries of the eigenstates.  Spin
flip: a J_z=0 eigenstate of J**2 is mapped by the global spin flip to
(-1)**(Ls - J) times itself, so the m_A > 0 Schmidt blocks are diagonalized
once and counted twice, and m_A < 0 is dropped; the m_A = 0 block, whose
rows i and n-1-i the flip swaps (it reverses their lexicographic order),
splits into the flip-even and flip-odd rows (x_i +- x_{n-1-i}) / sqrt 2
(`_flip_classes`; the middle row of an odd n joins the even ones).  The
build checks the flip on every J**2 subspace and refuses a chain that
misses it.  In-half reflection: at k = 0, pi the eigenstates are real; at
other k, R = T**cut P (site i to (cut-1-i) mod L, keeping both halves and
every block) maps a P K-invariant eigenstate psi to psi(R c) = exp(-ik cut)
conj psi(c), so each Schmidt block M of exp(ik cut/2) psi obeys M[R rows,
R cols] = conj M, and the real N = Im M + Re M[:, R cols] = V^dagger M W^*,
with the unitaries V = exp(i pi/4) (1 - i R) / sqrt 2 on rows and W alike on
columns, has M's singular values, flip class by flip class (R commutes with
the flip).
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .combinatorics import SpinSpecies, _check_integer, _check_species, _check_zero_jz
from . import ensembles
from .ensembles import EntropyEstimate, _check_normalized, _fraction_cut, _passes, bipartition_maps
from .su2 import bond_matrix_elements, configuration_space, spin_squared_terms

__all__ = [
    "ChainSpec",
    "EigenstateRecord",
    "MAX_SITES",
    "CENTRAL_FRACTION",
    "diagonalize_and_resolve",
    "eigenstate_entropy_average",
    "gaussianity_average",
    "gaussianity_of_vector",
]

# Dense-solver guardrails: momentum blocks stay below ~10**4 states.
MAX_SITES = {1: 18, 2: 11}

# Entropies and Gaussianity are evaluated for this central share of each
# block's spectrum, by energy rank.
CENTRAL_FRACTION = 0.2

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ChainSpec:
    """Periodic SU(2)-symmetric chain with one tunable coupling, of at most MAX_SITES sites."""

    species: SpinSpecies
    sites: int
    coupling: float = 0.0

    def __post_init__(self):
        _check_species(self.species)
        object.__setattr__(self, "sites", _check_integer("sites", self.sites))
        if self.sites < 3:
            raise ValueError(f"chains need at least 3 sites, got {self.sites}")
        # a Python bool is a Real (numpy's is not), and both are refused
        if (isinstance(self.coupling, bool) or not isinstance(self.coupling, numbers.Real)
                or not math.isfinite(self.coupling)):
            raise ValueError(f"coupling must be a finite real number, got {self.coupling!r}")
        # an input range, not a tolerance: under MAX_SITES the energies and the
        # squares that form the H residual norms then stay inside float range
        if abs(self.coupling) > 1e100:
            raise ValueError(f"|coupling| must be at most 1e100, got {self.coupling!r}")
        # stored as a float: a Fraction would reach eigh as an object array
        object.__setattr__(self, "coupling", float(self.coupling))
        _check_zero_jz(self.species, self.sites)
        cap = MAX_SITES[self.species.two_s]
        if self.sites > cap:
            raise ValueError(f"L={self.sites} exceeds the dense-diagonalization cap L<={cap} "
                             f"for spin {self.species.name}")


# ---------------------------------------------------------------------------
# translation orbits, real bases and operator matrices


def _bond_keys(two_s):
    """(distance, pair-term power) of the bond terms of H, in `_bond_list` order."""
    return ((1, 1), (2, 1)) if two_s == 1 else ((1, 1), (1, 2))


def _bond_list(spec):
    """(distance, coefficient, pair-term power) triples defining H."""
    two_s = spec.species.two_s
    coeffs = (-1.0, -spec.coupling) if two_s == 1 else (-1.0, spec.coupling)
    return tuple((dist, coeff, power) for (dist, power), coeff in zip(_bond_keys(two_s), coeffs))


@lru_cache(maxsize=None)
def _orbit_data(two_s, sites):
    """Translation orbits of the slice, one entry per configuration.

    Returns arrays (rep, shift, period, mirror): configuration c equals
    T**shift[c] applied to the slice configuration rep[c], the orbit member
    with the smallest code, period[c] is the orbit length, and mirror[c] is
    the slice index of P c, P the site reflection i -> L-1-i.  T moves every
    site's digit one position up (periodically), and P T P = T**-1.
    """
    d = two_s + 1
    codes, digits = configuration_space(two_s, sites, 0)
    # rolled[c, t] is the code of T**-t applied to configuration c
    rolled = [codes]
    for _ in range(1, sites):
        rolled.append(rolled[-1] // d + rolled[-1] % d * d ** (sites - 1))
    rolled = np.stack(rolled, axis=1)
    rep = np.searchsorted(codes, rolled.min(axis=1))
    shift = rolled.argmin(axis=1)
    period = sites // (rolled == codes[:, None]).sum(axis=1)
    mirror = np.searchsorted(codes, digits[:, ::-1] @ d ** np.arange(sites, dtype=np.int64))
    for table in (rep, shift, period, mirror):
        table.flags.writeable = False
    return rep, shift, period, mirror


@dataclass(frozen=True, eq=False)
class _Block:
    """Momentum block n of the J_z=0 slice and its real basis U.

    `reps` holds the slice indices of the orbit representatives r, ascending;
    state j of the block is |r_j, k> = sum_t exp(-ikt) T**t |r_j> / sqrt(period).
    Slice configuration c = T**t r then carries `phase[c]` = exp(-ikt) /
    sqrt(period) times the entry at `position[c]`, the block position of its
    orbit (len(reps) outside the block), and `shift_phase[t]` = exp(ikt).
    U is stored by rows as `maps`, (map, weight) pairs with U[t, map[t]] =
    weight[t], all else 0.  At k = 0, pi the phases and the momentum basis are
    real, and U = 1: one pair (identity, ones).  At other k (`complex_sector`),
    with P |r> = T**s |r'>, P K |r, k> = exp(iks) |r', k>: column r is
    exp(iks/2) |r, k> for r = r', and each pair r < r' gives the columns
    (|r, k> + exp(iks) |r', k>) / sqrt 2 at r and i (|r, k> - exp(iks) |r', k>)
    / sqrt 2 at r', so a second pair maps each row to its partner's column.
    """

    momentum_index: int
    reps: np.ndarray
    position: np.ndarray
    phase: np.ndarray
    shift_phase: np.ndarray
    maps: tuple
    complex_sector: bool

    def to_momentum(self, vectors):
        """U x: real-basis columns x as momentum-basis columns."""
        return reduce(np.add, (weight[:, None] * vectors[row_map] for row_map, weight in self.maps))


def _momentum_block(two_s, sites, n):
    """`_Block` of momentum index n."""
    rep, shift, period, mirror = _orbit_data(two_s, sites)
    reps = np.flatnonzero((shift == 0) & ((n * period) % sites == 0))
    position = np.full(len(rep), len(reps))
    position[reps] = np.arange(len(reps))
    position = position[rep]
    k = 2.0 * math.pi * n / sites
    phase = np.exp(-1j * k * shift) / np.sqrt(period)
    shift_phase = np.exp(1j * k * np.arange(sites))
    j = np.arange(len(reps))
    complex_sector = 2 * n % sites != 0
    if complex_sector:
        s = shift[mirror[reps]]
        partner = position[mirror[reps]]
        root = math.sqrt(0.5)
        mirrored = np.exp(1j * k * s)
        a = np.where(partner == j, np.exp(0.5j * k * s), np.where(j < partner, root, -1j * root * mirrored))
        b = np.where(partner == j, 0.0, np.where(j < partner, root * mirrored, 1j * root))
        maps = ((j, a), (partner, b[partner]))  # column j is a[j] |r_j> + b[j] |r_partner[j]>
    else:  # k = 0, pi: phase is +-1 / sqrt(period) and shift_phase +-1
        phase, shift_phase, maps = phase.real, shift_phase.real, ((j, np.ones(len(reps))),)
    for table in (reps, position, phase, shift_phase, *(x for pair in maps for x in pair)):
        table.flags.writeable = False
    return _Block(n, reps, position, phase, shift_phase, maps, complex_sector)


def _bond_term(two_s, sites, bonds):
    """One table of sum coeff sum_i (S_i . S_{i+dist})**power over the (dist,
    coeff, power) triples `bonds`, on every orbit representative, for every
    momentum block: COO arrays (target, col, amp, shift, ratio) of the target
    and column representatives' slice indices, the amplitude, the target's
    shift and the period ratio, in the order `bond_matrix_elements` gives."""
    codes, digits = configuration_space(two_s, sites, 0)
    rep, shift, period, _ = _orbit_data(two_s, sites)
    reps = np.flatnonzero(shift == 0)
    col, row, amp = bond_matrix_elements(two_s, digits[reps], bonds, codes)
    return (rep[row].astype(np.int32), reps[col].astype(np.int32), amp,
            shift[row].astype(np.int8), np.sqrt(period[reps][col] / period[row]))


def _real_block(block, term, diagonal_shift=0.0):
    """Real-basis matrix U^dagger A U of A = diagonal_shift + the `_bond_term`
    table `term`: each element (t, c) whose orbits fit the momentum carries
    v = amp * exp(ik shift) * ratio and adds Re(conj U[t, i] v U[c, j]) at
    (i, j), one bincount per pair of `block.maps` (i = map[t], j = map'[c]).
    At k = 0, pi U = 1 and v is real; with the diagonal shift leading, each
    entry sums in the order of a momentum-basis assembly of A."""
    dim = len(block.reps)
    target, col, amp, target_shift, ratio = term
    target, col = block.position[target], block.position[col]
    keep = (target < dim) & (col < dim)
    values = amp[keep] * block.shift_phase[target_shift[keep]] * ratio[keep]
    values = np.concatenate([np.full(dim, diagonal_shift), values])
    identity = np.arange(dim)
    target, col = (np.concatenate([identity, x[keep]]) for x in (target, col))
    matrix = np.zeros(dim * dim)
    for row_map, row_weight in block.maps:  # U[t, map[t]] = weight[t]
        i, uv = row_map[target] * dim, row_weight.conj()[target] * values
        for col_map, col_weight in block.maps:
            matrix += np.bincount(i + col_map[col], np.real(uv * col_weight[col]), minlength=dim * dim)
    matrix = matrix.reshape(dim, dim)
    return 0.5 * (matrix + matrix.T)


def _flip_defect(block, shift, basis, parity):
    """Largest row norm of F Q - parity Q for the spin flip F and momentum-basis
    columns Q: a bound on |psi(flip c) - parity psi(c)| for every unit psi in
    their span.  F reverses the sorted slice, so it sends the state of
    representative r to exp(ikt) times the state of the orbit of N-1-r, t its
    `_orbit_data` shift."""
    flipped = len(shift) - 1 - block.reps
    phase = block.shift_phase[shift[flipped]]
    target = block.position[flipped]
    return float(np.linalg.norm(phase[:, None] * basis - parity * basis[target], axis=1).max())


class _Subspace(NamedTuple):
    """One (k, J) subspace: spin two_j/2, the real J**2 eigenvectors Q_J
    spanning it (columns in the block's real basis) and their eigenvalues, the
    projections Q_J^T B Q_J of the bond terms B of `_bond_keys`, stacked along
    the last axis, and their leakage certificates |B Q_J - Q_J Q_J^T B Q_J|_F.
    J**2 and B are scattered by `_real_block` straight into the block's real
    basis."""

    two_j: int
    basis: np.ndarray
    j2_values: np.ndarray
    terms: np.ndarray
    leakage: np.ndarray


@lru_cache(maxsize=8)
def _spin_subspaces(two_s, sites):
    """(`_Block`, its `_Subspace`s, two_j ascending) for n = 0 .. L/2.

    Independent of the coupling, so cached; the bond-term tables serve every
    block and are released once the chain is built.  Raises RuntimeError when
    the `_flip_defect` of a subspace for the parity (-1)**(Ls - J) exceeds
    RESIDUAL_TOL: the flip-reduced Schmidt blocks of `_cut_maps` rest on
    psi(flip c) = (-1)**(Ls - J) psi(c).
    """
    shift = _orbit_data(two_s, sites)[1]
    diagonal, j2_bonds = spin_squared_terms(two_s, sites)
    j2_term = _bond_term(two_s, sites, j2_bonds)
    bond_terms = [_bond_term(two_s, sites, ((dist, 1.0, power),)) for dist, power in _bond_keys(two_s)]
    chain = []
    for n in range(sites // 2 + 1):
        block = _momentum_block(two_s, sites, n)
        values, basis = np.linalg.eigh(_real_block(block, j2_term, diagonal))
        values.flags.writeable = basis.flags.writeable = False
        h_terms = [_real_block(block, term) for term in bond_terms]
        two_js = np.rint(np.sqrt(4.0 * values + 1.0) - 1.0).astype(int)
        bounds = [*np.flatnonzero(np.diff(two_js)) + 1, len(values)]
        subspaces = []
        for lo, hi in zip([0, *bounds], bounds):
            q, two_j = basis[:, lo:hi], int(two_js[lo])
            defect = _flip_defect(block, shift, block.to_momentum(q), (-1) ** ((two_s * sites - two_j) // 2))
            if defect > RESIDUAL_TOL:
                raise RuntimeError(f"L={sites}, n={n}, 2J={two_j}: the J**2 eigenvectors miss the spin-flip "
                                   f"parity (-1)**(Ls-J) by {defect:.3g} > RESIDUAL_TOL={RESIDUAL_TOL}")
            h_q = [h @ q for h in h_terms]
            terms = np.stack([q.T @ x for x in h_q], axis=-1)
            leakage = np.array([np.linalg.norm(x - q @ terms[..., b]) for b, x in enumerate(h_q)])
            terms.flags.writeable = leakage.flags.writeable = False
            subspaces.append(_Subspace(two_j, q, values[lo:hi], terms, leakage))
        chain.append((block, tuple(subspaces)))
    return tuple(chain)


# ---------------------------------------------------------------------------
# diagonalization, spin resolution, eigenstate statistics


@dataclass
class EigenstateRecord:
    """One resolved eigenstate of a momentum block.

    `gaussianity` and `entropy` (of the cut that `diagonalize_and_resolve`
    was given) are set for central, unflagged records only, and NaN otherwise.
    """

    energy: float
    momentum_index: int
    two_j: int
    j2_residual: float
    central: bool
    complex_sector: bool
    gaussianity: float = math.nan
    entropy: float = math.nan
    flagged: bool = False


def gaussianity_of_vector(vector):
    """Moment ratio mean(x**2) / mean(|x|)**2 of the real parts of a vector.

    A column stack of vectors gives one value per column, each equal to the
    value of that column alone.
    """
    vector = np.asarray(vector)
    if vector.ndim not in (1, 2) or not len(vector):
        raise ValueError(f"expected a non-empty vector or column stack, got shape {vector.shape}")
    if not np.isfinite(vector).all():
        raise ValueError("vector has non-finite entries")
    # one contiguous row per vector: each mean sums in the order of a 1-D mean
    x = np.ascontiguousarray(np.real(vector).reshape(len(vector), -1).T)
    mean_abs = np.abs(x).mean(axis=1)
    if not mean_abs.all():
        where = "" if vector.ndim == 1 else f"column {np.flatnonzero(mean_abs == 0.0)[0]} of "
        raise ValueError(f"{where}vector has identically vanishing real part")
    values = (x**2).mean(axis=1) / mean_abs**2
    return values if vector.ndim == 2 else float(values[0])


@lru_cache(maxsize=None)
def _cut_maps(two_s, sites, cut):
    """Flip-reduced Schmidt index maps of the J_z=0 slice for the first `cut`
    sites (see the module docstring); independent of the coupling, so cached.
    Entries are (order, shape, copies, flip_paired, mirror): a
    `bipartition_maps` entry for m_A >= 0 (m_A = 0 with its smaller side as
    rows), the times its spectrum counts, whether its rows split into flip
    classes, and the flat index of (row, R col) at each entry (row, col)."""
    codes, digits = configuration_space(two_s, sites, 0)
    reflected = np.concatenate([digits[:, cut - 1::-1], digits[:, :cut - 1:-1]], axis=1)
    reflection = np.searchsorted(codes, reflected @ (two_s + 1) ** np.arange(sites, dtype=np.int64))
    position = np.empty(len(codes), dtype=np.intp)
    maps = []
    for order, shape in bipartition_maps(digits, range(cut)):
        twice_m = 2 * int(digits[order[0], :cut].sum()) - cut * two_s
        if twice_m < 0:
            continue
        if twice_m == 0 and shape[1] < shape[0]:  # Schmidt values ignore a transpose
            order, shape = order.reshape(shape).T.ravel(), shape[::-1]
        entry = position[order] = np.arange(len(order))
        mirror = entry - entry % shape[1] + position[reflection[order]] % shape[1]
        order.flags.writeable = mirror.flags.writeable = False
        maps.append((order, shape, 2 if twice_m else 1, twice_m == 0, mirror))
    return tuple(maps)


def _flip_classes(blocks):
    """Flip-even and flip-odd rows (x_i +- x_{n-1-i}) / sqrt 2 of stacked
    Schmidt blocks whose row i is the flip partner of row n-1-i; the middle
    row of an odd n is its own partner and joins the even rows."""
    n = blocks.shape[-2]
    top, bottom = blocks[:, : n // 2], blocks[:, : (n - 1) // 2 : -1]
    even = (top + bottom) * math.sqrt(0.5)
    odd = (top - bottom) * math.sqrt(0.5)
    return np.concatenate([even, blocks[:, n // 2 : n - n // 2]], axis=1), odd


def _schmidt_entropies(maps, picks, cut, sites):
    """Entropies of the states of a run over the `_cut_maps` entries `maps`,
    in the order of `picks`, (block, picked) pairs of momentum-basis columns:
    slice configuration c = T**t r reads phase[c] exp(ik cut/2) times row r
    of picked, 0 outside the block.  Each entry fills one real stack, Im M +
    Re M.flat[mirror] for a complex-sector block M, and diagonalizes the Gram
    stack of each flip class before the next entry is filled."""
    padded, phases = [], []
    for block, picked in picks:
        _check_normalized(picked)
        padded.append(np.vstack([picked, np.zeros((1, picked.shape[1]), dtype=picked.dtype)]))
        phases.append(block.phase * np.exp(1j * math.pi * block.momentum_index * cut / sites)
                      if block.complex_sector else block.phase)
    bounds = [0, *accumulate(picked.shape[1] for _, picked in picks)]
    values = np.zeros(bounds[-1])
    for order, shape, copies, flip_paired, mirror in maps:
        amps = [rows[block.position[order]] * phase[order, None]
                for (block, _), rows, phase in zip(picks, padded, phases)]
        blocks = np.empty((bounds[-1],) + shape)
        for (block, _), a, lo, hi in zip(picks, amps, bounds, bounds[1:]):
            blocks[lo:hi].reshape(hi - lo, -1)[...] = (a.imag + a.real[mirror] if block.complex_sector else a).T
        for part in _flip_classes(blocks) if flip_paired else (blocks,):
            values += copies * ensembles.schmidt_square_entropy(ensembles._schmidt_squares(part))
    return values


def _central_window(dim):
    """Index range of the central CENTRAL_FRACTION of a block of `dim` states."""
    n_sel = max(1, round(CENTRAL_FRACTION * dim))
    start = (dim - n_sel) // 2
    return range(start, start + n_sel)


def _solve(subspaces, coeffs):
    """(rot, (energies, 2J, J**2 residuals, H residual bounds)) of H_J =
    sum_b c_b Q_J^T B_b Q_J in each `_Subspace`, in order.  Subspaces of one size share
    one stacked product, one `eigh` call and the residual products (a size
    that occurs once is not copied); LAPACK and BLAS run once per matrix of a
    stack, so each result is bitwise that of its own call."""
    solved = [None] * len(subspaces)
    for size in {len(sub.j2_values) for sub in subspaces}:
        group = [i for i, sub in enumerate(subspaces) if len(sub.j2_values) == size]
        subs = [subspaces[i] for i in group]
        h = (subs[0].terms[None] if len(subs) == 1 else np.stack([sub.terms for sub in subs])) @ coeffs
        energies, rot = np.linalg.eigh(h)
        j2 = (np.stack([sub.j2_values for sub in subs])[:, None] @ rot**2)[:, 0]
        j2_residuals = np.abs(j2 - np.array([[sub.two_j / 2 * (sub.two_j / 2 + 1)] for sub in subs]))
        h_residuals = (np.linalg.norm(h @ rot - rot * energies[:, None], axis=1)
                       + np.array([[np.abs(coeffs) @ sub.leakage] for sub in subs]))
        for k, i in enumerate(group):
            solved[i] = rot[k], (energies[k], np.full(size, subs[k].two_j), j2_residuals[k], h_residuals[k])
    return solved


def diagonalize_and_resolve(spec, fraction=Fraction(1, 2)):
    """Diagonalize H inside each J**2 eigenspace of every momentum block.

    [H, J**2] = 0, so every eigenstate carries a sharp spin label; a block's
    records ascend in energy, ties by spin, where energies tie when the gap
    between neighbours is at most RESIDUAL_TOL max(1, max|E|).  H is solved
    in each (k, J) subspace as H_J = sum_b c_b Q_J^T B_b Q_J from the cached
    bond-term projections, every block scattered straight into its real
    basis (`_real_block`).  A record is flagged, and left out of the
    averages, when |<J**2> - J(J+1)| > RESIDUAL_TOL, when its H residual bound
    |H_J x - E x| + sum_b |c_b| |B_b Q_J - Q_J Q_J^T B_b Q_J|_F, which bounds
    |Hv - Ev| for v = Q_J x, exceeds RESIDUAL_TOL max(1, max|E|) (an H that
    breaks SU(2) leaks out of the J**2 subspaces).
    The entanglement entropy of the first round(f*L) sites (`fraction=None`
    skips it) and Gaussianity are evaluated, on the momentum-basis
    eigenvectors, for the central CENTRAL_FRACTION of each block by energy
    rank.  The blocks are worked through in runs (`ensembles._passes`), each
    with one solve per subspace size (`_solve`) and one Schmidt pass
    (`_schmidt_entropies`).
    """
    two_s = spec.species.two_s
    sites = spec.sites
    maps = ()
    if fraction is not None:
        cut = _fraction_cut(fraction, sites)
        maps = _cut_maps(two_s, sites, cut)
    coeffs = np.array([coeff for _, coeff, _ in _bond_list(spec)])
    # Conjugate momentum pairs (n, L-n) carry identical spectra and entropy
    # statistics, so only n = 0 .. L/2 is diagonalized.
    chain = _spin_subspaces(two_s, sites)
    # a block's stacks: 8 bytes x central states x the largest entry (or the slice, uncut)
    largest = max((len(order) for order, *_ in maps), default=len(_orbit_data(two_s, sites)[0]))
    costs = [len(_central_window(len(block.reps))) * largest * 8 for block, _ in chain]
    records = []
    for start, stop in _passes(costs):
        run = chain[start:stop]
        solved = iter(_solve([sub for _, subspaces in run for sub in subspaces], coeffs))
        targets, picks = [], []  # the chosen records, in the order of the picked columns
        for block, subspaces in run:
            rots, parts = zip(*(next(solved) for _ in subspaces))
            energies, two_js, j2_residuals, h_residuals = map(np.concatenate, zip(*parts))
            # rank order: energy, ties by 2J, then by position (lexsort is stable);
            # neighbours within RESIDUAL_TOL scale tie, as exact cross-J
            # degeneracies come out a few ulps apart
            dim = len(energies)
            scale = max(1.0, np.abs(energies).max())
            by_energy = np.argsort(energies)
            gaps = np.diff(energies[by_energy]) > RESIDUAL_TOL * scale
            group = np.empty(dim, dtype=int)
            group[by_energy] = np.concatenate(([0], np.cumsum(gaps)))
            order = np.lexsort((two_js, group))
            energies, two_js, j2_residuals, h_residuals = (
                a[order] for a in (energies, two_js, j2_residuals, h_residuals))
            flagged = (j2_residuals > RESIDUAL_TOL) | (h_residuals > RESIDUAL_TOL * scale)
            central = np.zeros(dim, dtype=bool)
            central[_central_window(dim)] = True
            gaussianity = np.full(dim, math.nan)
            chosen = np.flatnonzero(central & ~flagged)
            if chosen.size:
                # real eigenvectors Q_J x of the chosen records, then U to the momentum basis
                index = order[chosen]
                picked = np.empty((dim, chosen.size))
                lo = 0
                for sub, rot in zip(subspaces, rots):
                    mine = np.flatnonzero((index >= lo) & (index < lo + len(rot)))
                    picked[:, mine] = sub.basis @ rot[:, index[mine] - lo]
                    lo += len(rot)
                picked = block.to_momentum(picked)
                gaussianity[chosen] = gaussianity_of_vector(picked)
            n, complex_sector = block.momentum_index, block.complex_sector
            block_records = [EigenstateRecord(e, n, j, r, c, complex_sector, g, flagged=f)
                             for e, j, r, c, g, f in zip(*(a.tolist() for a in (
                                 energies, two_js, j2_residuals, central, gaussianity, flagged)))]
            records += block_records
            if chosen.size and fraction is not None:
                picks.append((block, picked))
                targets += [block_records[i] for i in chosen.tolist()]
        if picks:
            for record, value in zip(targets, _schmidt_entropies(maps, picks, cut, sites).tolist()):
                record.entropy = value
    return records


def _central_values(records, two_j, name):
    """Attribute `name`, where set, of the central, unflagged complex-sector
    records with spin two_j/2."""
    central = [getattr(r, name) for r in records
               if r.central and r.complex_sector and not r.flagged and r.two_j == two_j]
    values = [v for v in central if not math.isnan(v)]
    if not values:
        what = f"central eigenstates with two_j={two_j}"
        raise ValueError(f"the {what} carry no {name}: resolve them with a fraction" if central
                         else f"no {what} were found")
    return values


def eigenstate_entropy_average(records, two_j):
    """Mean entropy over central complex-sector eigenstates with spin two_j/2."""
    return EntropyEstimate.from_samples(_central_values(records, two_j, "entropy"), "ed", 0)


def gaussianity_average(records, two_j):
    """Mean Gaussianity over central complex-sector eigenstates with spin two_j/2."""
    return float(np.mean(_central_values(records, two_j, "gaussianity")))
