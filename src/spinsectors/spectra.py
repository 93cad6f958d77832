"""Exact diagonalization of SU(2)-symmetric chains in momentum-resolved sectors.

Spin-1/2 chains carry nearest plus next-nearest Heisenberg exchange with
relative strength `coupling` (integrable at 0); spin-1 chains carry nearest
Heisenberg exchange plus a biquadratic term of strength `coupling`
(integrable at 1).  Both are diagonalized in the zero-magnetization sector,
block by block in the total quasimomentum k_n = 2 pi n / L and, inside each
block, in every J**2 eigenspace, so each eigenstate carries its total spin.

Everything that does not depend on the coupling is cached per process: the
translation orbits, one bond-term table per (distance, power) for H, J**2
and every momentum, the J**2 eigenbases of each block, and the Schmidt index
maps of each cut.  The maps are flip-reduced: a J_z=0 eigenstate of J**2 is
mapped by the global spin flip to (-1)**(Ls - J) times itself, so only the
m_A > 0 Schmidt blocks are diagonalized, each counted twice, and m_A = 0
splits into flip-even and flip-odd rows.  The records of a J**2 subspace
whose cached flip certificate misses that symmetry are flagged.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .combinatorics import SpinSpecies
from .ensembles import EntropyEstimate, bipartition_maps, slice_entanglement_entropy
from .su2 import bond_matrix_elements, configuration_space, spin_squared_terms

__all__ = [
    "ChainSpec",
    "MomentumBlock",
    "EigenstateRecord",
    "MAX_SITES",
    "CENTRAL_FRACTION",
    "diagonalize_and_resolve",
    "eigenstate_entropy_average",
    "gaussianity_average",
    "gaussianity_of_vector",
]

# Dense-solver guardrails: momentum blocks stay below ~10**4 states.
MAX_SITES = {1: 16, 2: 10}

# Entropies and Gaussianity are evaluated for this central share of each
# block's spectrum, by energy rank.
CENTRAL_FRACTION = 0.2

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ChainSpec:
    """Periodic SU(2)-symmetric chain with one tunable coupling."""

    species: SpinSpecies
    sites: int
    coupling: float = 0.0

    def __post_init__(self):
        if self.sites < 3:
            raise ValueError(f"chains need at least 3 sites, got {self.sites}")
        if not math.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if self.species.two_s == 1 and self.sites % 2:
            raise ValueError("the spin-1/2 J_z=0 sector needs an even number of sites")


def _check_cap(spec):
    cap = MAX_SITES[spec.species.two_s]
    if spec.sites > cap:
        raise ValueError(
            f"L={spec.sites} exceeds the dense-diagonalization cap L<={cap} "
            f"for spin {spec.species.name}"
        )


# ---------------------------------------------------------------------------
# translation orbits and operator matrices


def _bond_list(spec):
    """(distance, coefficient, pair-term power) triples defining H."""
    if spec.species.two_s == 1:
        return ((1, -1.0, 1), (2, -spec.coupling, 1))
    return ((1, -1.0, 1), (1, spec.coupling, 2))


@lru_cache(maxsize=None)
def _orbit_data(two_s, sites):
    """Translation orbits of the slice, one entry per configuration.

    Returns arrays (rep, shift, period): configuration c equals
    T**shift[c] applied to the slice configuration rep[c], the orbit member
    with the smallest code, and period[c] is the orbit length.  T moves
    every site's digit one position up (periodically).
    """
    d = two_s + 1
    codes, _ = configuration_space(two_s, sites, 0)
    # rolled[c, t] is the code of T**-t applied to configuration c
    rolled = [codes]
    for _ in range(1, sites):
        rolled.append(rolled[-1] // d + rolled[-1] % d * d ** (sites - 1))
    rolled = np.stack(rolled, axis=1)
    rep = np.searchsorted(codes, rolled.min(axis=1))
    shift = rolled.argmin(axis=1)
    period = sites // (rolled == codes[:, None]).sum(axis=1)
    for table in (rep, shift, period):
        table.flags.writeable = False
    return rep, shift, period


def _block_position(codes, rep, block_codes):
    """Block position of every slice configuration's orbit, len(block_codes) outside."""
    position = np.full(len(codes), len(block_codes))
    position[np.searchsorted(codes, block_codes)] = np.arange(len(block_codes))
    return position[rep]


@dataclass
class MomentumBlock:
    """One total-quasimomentum block of a translation-invariant operator."""

    momentum_index: int
    sites: int
    representatives: np.ndarray
    matrix: np.ndarray

    @property
    def is_complex_sector(self) -> bool:
        n, sites = self.momentum_index, self.sites
        return n not in (0, sites // 2) if sites % 2 == 0 else n != 0

    @property
    def dim(self) -> int:
        return len(self.representatives)


@lru_cache(maxsize=None)
def _bond_term(two_s, sites, dist, power):
    """COO elements of sum_i (S_i . S_{i+dist})**power on every orbit
    representative, cached once for H, J**2 and every momentum block:
    read-only arrays (target, col, amp, shift, ratio) of the target and column
    representatives' slice indices, the amplitude, the target's shift and the
    period ratio, in the order `bond_matrix_elements` gives them."""
    codes, digits = configuration_space(two_s, sites, 0)
    rep, shift, period = _orbit_data(two_s, sites)
    reps = np.flatnonzero(shift == 0)
    col, row, amp = bond_matrix_elements(two_s, digits[reps], ((dist, 1.0, power),), codes)
    term = (rep[row].astype(np.int32), reps[col].astype(np.int32), amp,
            shift[row].astype(np.int8), np.sqrt(period[reps][col] / period[row]))
    for a in term:
        a.flags.writeable = False
    return term


def _assemble_block(two_s, sites, momentum_index, bonds, diagonal_shift=0.0):
    """Momentum block of diagonal_shift + the (dist, coeff, power) `bonds`: each
    cached term element whose target and column orbits fit the momentum
    enters as coeff * amp * exp(i k shift) * ratio."""
    codes, _ = configuration_space(two_s, sites, 0)
    rep, shift, period = _orbit_data(two_s, sites)
    block_reps = np.flatnonzero((shift == 0) & ((momentum_index * period) % sites == 0))
    dim = len(block_reps)
    position = _block_position(codes, rep, codes[block_reps])  # dim outside the block
    k = 2.0 * math.pi * momentum_index / sites
    phases = np.exp(1j * k * np.arange(sites))
    targets, cols, values = [], [], []
    for dist, coeff, power in bonds:
        if coeff == 0.0:
            continue
        target, col, amp, target_shift, ratio = _bond_term(two_s, sites, dist, power)
        target, col = position[target], position[col]
        keep = (target < dim) & (col < dim)
        targets.append(target[keep])
        cols.append(col[keep])
        values.append(coeff * amp[keep] * phases[target_shift[keep]] * ratio[keep])
    matrix = np.eye(dim, dtype=complex) * diagonal_shift
    np.add.at(matrix, (np.concatenate(targets), np.concatenate(cols)), np.concatenate(values))
    matrix = 0.5 * (matrix + matrix.conj().T)
    return MomentumBlock(momentum_index, sites, codes[block_reps], matrix)


def _flip_defect(block, basis, parity, two_s):
    """Largest row norm of F Q - parity Q for the spin flip F and block columns
    Q: a bound on |psi(flip c) - parity psi(c)| for every unit psi in their
    span.  F reverses the sorted slice, so it sends the state of
    representative r to exp(i k shift) times the state of the orbit of N-1-r."""
    codes, _ = configuration_space(two_s, block.sites, 0)
    rep, shift, _ = _orbit_data(two_s, block.sites)
    flipped = len(codes) - 1 - np.searchsorted(codes, block.representatives)
    phase = np.exp(2j * math.pi * block.momentum_index / block.sites * shift[flipped])
    target = _block_position(codes, rep, block.representatives)[flipped]
    return float(np.linalg.norm(phase[:, None] * basis - parity * basis[target], axis=1).max())


@lru_cache(maxsize=64)
def _spin_subspaces(two_s, sites, momentum_index):
    """Per spin, two_j ascending, (two_j, basis, j2_values, flip_defect) of one
    momentum block: orthonormal J**2 eigenvectors spanning the spin-two_j/2
    subspace, their eigenvalues and the `_flip_defect` of that span for the
    parity (-1)**(Ls - J).  Independent of the coupling, so cached."""
    diagonal, bonds = spin_squared_terms(two_s, sites)
    block = _assemble_block(two_s, sites, momentum_index, bonds, diagonal)
    values, basis = np.linalg.eigh(block.matrix)
    values.flags.writeable = basis.flags.writeable = False
    two_js = np.rint(np.sqrt(4.0 * values + 1.0) - 1.0).astype(int)
    parity = 1 - 2 * ((two_s * sites - two_js) // 2 % 2)
    bounds = [*np.flatnonzero(np.diff(two_js)) + 1, len(values)]
    return tuple(
        (int(two_js[lo]), basis[:, lo:hi], values[lo:hi],
         _flip_defect(block, basis[:, lo:hi], parity[lo], two_s))
        for lo, hi in zip([0, *bounds], bounds)
    )


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


def _config_amplitudes(block, vectors, two_s):
    """Map momentum-block eigenvectors (columns) back to slice-configuration amplitudes."""
    codes, _ = configuration_space(two_s, block.sites, 0)
    rep, shift, period = _orbit_data(two_s, block.sites)
    k = 2.0 * math.pi * block.momentum_index / block.sites
    # the appended zero row serves configurations whose orbit is not in the block
    padded = np.vstack([vectors, np.zeros((1, vectors.shape[1]), dtype=complex)])
    amps = padded[_block_position(codes, rep, block.representatives)]
    amps /= np.sqrt(period)[:, None]
    amps *= np.exp(-1j * k * shift)[:, None]
    return amps


@lru_cache(maxsize=None)
def _cut_maps(two_s, sites, cut):
    """Flip-reduced Schmidt index maps of the J_z=0 slice for the first `cut` sites.

    Exact for flip eigenstates only, as every J_z=0 eigenstate of J**2 is:
    the m_A < 0 blocks are dropped and the m_A > 0 ones count twice, and the
    m_A = 0 block, its smaller side made the rows, splits into flip classes
    (its rows, ranked lexicographically by digits, pair as i and n-1-i,
    because the flip reverses that order).  Independent of the coupling, so
    cached.
    """
    _, digits = configuration_space(two_s, sites, 0)
    maps = []
    for sel, rows, cols, shape, _, _ in bipartition_maps(digits, range(cut)):
        twice_m = 2 * int(digits[sel[0], :cut].sum()) - cut * two_s
        if twice_m < 0:
            continue
        if twice_m == 0 and shape[1] < shape[0]:  # Schmidt values ignore a transpose
            rows, cols, shape = cols, rows, shape[::-1]
        for a in (sel, rows, cols):
            a.flags.writeable = False
        maps.append((sel, rows, cols, shape, 2 if twice_m else 1, twice_m == 0))
    return tuple(maps)


def _central_window(dim):
    """Index range of the central CENTRAL_FRACTION of a block of `dim` states."""
    n_sel = max(1, round(CENTRAL_FRACTION * dim))
    start = (dim - n_sel) // 2
    return range(start, start + n_sel)


def diagonalize_and_resolve(spec, fraction=Fraction(1, 2)):
    """Diagonalize H inside each J**2 eigenspace of every momentum block.

    [H, J**2] = 0, so every eigenstate carries a sharp spin label; a block's
    records ascend in energy, ties by spin.  A record is flagged, and left out
    of the averages, when |<J**2> - J(J+1)| > RESIDUAL_TOL or |Hv - Ev| >
    RESIDUAL_TOL max(1, max|E|), the second catching an H that breaks SU(2),
    and when the `_flip_defect` of its J**2 subspace exceeds RESIDUAL_TOL:
    the flip-reduced Schmidt blocks of its entropy rest on
    psi(flip c) = (-1)**(Ls - J) psi(c).
    The entanglement entropy of the first round(f*L) sites (`fraction=None`
    skips it) and Gaussianity are evaluated for the central CENTRAL_FRACTION
    of each block by energy rank.
    """
    _check_cap(spec)
    two_s = spec.species.two_s
    sites = spec.sites
    if fraction is not None:
        cut = round(Fraction(fraction) * sites)
        if not 0 < cut < sites:
            raise ValueError(f"fraction {fraction} gives an empty bipartition at L={sites}")
        maps = _cut_maps(two_s, sites, cut)
        _, digits = configuration_space(two_s, sites, 0)
    bonds = _bond_list(spec)
    # Conjugate momentum pairs (n, L-n) carry identical spectra and entropy
    # statistics, so only n = 0 .. L/2 is diagonalized.
    records = []
    for n in range(sites // 2 + 1):
        block = _assemble_block(two_s, sites, n, bonds)
        parts = []  # per spin: energies, 2J labels, J**2 and H residuals, flip defects, vectors
        for two_j, basis, j2_values, flip_defect in _spin_subspaces(two_s, sites, n):
            h_basis = block.matrix @ basis
            energies, rot = np.linalg.eigh(basis.conj().T @ h_basis)
            vectors = basis @ rot
            parts.append((energies, np.full(len(energies), two_j),
                          np.abs(j2_values @ np.abs(rot) ** 2 - two_j / 2 * (two_j / 2 + 1)),
                          np.linalg.norm(h_basis @ rot - vectors * energies, axis=0),
                          np.full(len(energies), flip_defect), vectors))
        energies, two_js, j2_residuals, h_residuals, flip_defects, vectors = (
            np.concatenate(column, axis=-1) for column in zip(*parts))
        # rank order: energy, ties by 2J, then by position (lexsort is stable)
        order = np.lexsort((two_js, energies))
        energies, two_js, j2_residuals, h_residuals, flip_defects = (
            a[order] for a in (energies, two_js, j2_residuals, h_residuals, flip_defects))
        scale = max(1.0, np.abs(energies).max())
        flagged = ((j2_residuals > RESIDUAL_TOL) | (h_residuals > RESIDUAL_TOL * scale)
                   | (flip_defects > RESIDUAL_TOL))
        central = np.zeros(block.dim, dtype=bool)
        central[_central_window(block.dim)] = True
        gaussianity, entropy = np.full((2, block.dim), math.nan)
        chosen = np.flatnonzero(central & ~flagged)
        if chosen.size:
            picked = vectors[:, order[chosen]]
            gaussianity[chosen] = gaussianity_of_vector(picked)
            if fraction is not None:
                amps = _config_amplitudes(block, picked, two_s)
                entropy[chosen] = slice_entanglement_entropy(amps, digits, range(cut), maps=maps)
        columns = (energies, two_js, j2_residuals, central, gaussianity, entropy, flagged)
        complex_sector = block.is_complex_sector
        records += [EigenstateRecord(e, n, j, r, c, complex_sector, g, s, f)
                    for e, j, r, c, g, s, f in zip(*(a.tolist() for a in columns))]
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
