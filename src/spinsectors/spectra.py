"""Exact diagonalization of SU(2)-symmetric chains in momentum-resolved sectors.

Spin-1/2 chains carry nearest plus next-nearest Heisenberg exchange with
relative strength `coupling` (integrable at 0); spin-1 chains carry nearest
Heisenberg exchange plus a biquadratic term of strength `coupling`
(integrable at 1).  Both are diagonalized in the zero-magnetization sector,
block by block in the total quasimomentum k_n = 2 pi n / L and, inside each
block, in every J**2 eigenspace, so each eigenstate carries its total spin.
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


def _assemble_block(two_s, sites, momentum_index, bonds, diagonal_shift=0.0):
    codes, digits = configuration_space(two_s, sites, 0)
    rep, shift, period = _orbit_data(two_s, sites)
    n = momentum_index
    block_reps = np.flatnonzero((shift == 0) & ((n * period) % sites == 0))
    dim = len(block_reps)
    col, row, amp = bond_matrix_elements(two_s, digits[block_reps], bonds, codes)
    target = _block_position(codes, rep, codes[block_reps])[row]
    keep = target < dim  # target orbits incompatible with this momentum drop out
    k = 2.0 * math.pi * n / sites
    values = amp * np.exp(1j * k * shift[row]) * np.sqrt(period[block_reps][col] / period[row])
    matrix = np.eye(dim, dtype=complex) * diagonal_shift
    np.add.at(matrix, (target[keep], col[keep]), values[keep])
    matrix = 0.5 * (matrix + matrix.conj().T)
    return MomentumBlock(n, sites, codes[block_reps], matrix)


@lru_cache(maxsize=64)
def _spin_subspaces(two_s, sites, momentum_index):
    """Per spin, two_j ascending, (two_j, basis, j2_values) of one momentum block:
    orthonormal J**2 eigenvectors spanning the spin-two_j/2 subspace and their
    eigenvalues.  Independent of the coupling, so cached."""
    diagonal, bonds = spin_squared_terms(two_s, sites)
    block = _assemble_block(two_s, sites, momentum_index, bonds, diagonal)
    values, basis = np.linalg.eigh(block.matrix)
    values.flags.writeable = basis.flags.writeable = False
    two_js = np.rint(np.sqrt(4.0 * values + 1.0) - 1.0).astype(int)
    bounds = [*np.flatnonzero(np.diff(two_js)) + 1, len(values)]
    return tuple(
        (int(two_js[lo]), basis[:, lo:hi], values[lo:hi]) for lo, hi in zip([0, *bounds], bounds)
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
    """Moment ratio mean(x**2) / mean(|x|)**2 of the real parts of a vector."""
    x = np.real(np.asarray(vector))
    mean_abs = np.abs(x).mean()
    if mean_abs == 0.0:
        raise ValueError("vector has identically vanishing real part")
    return float((x**2).mean() / mean_abs**2)


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
    """Schmidt index maps of the J_z=0 slice for the first `cut` sites.
    Independent of the coupling, so cached."""
    _, digits = configuration_space(two_s, sites, 0)
    maps = tuple(bipartition_maps(digits, range(cut)))
    for sel, rows, cols, _ in maps:
        sel.flags.writeable = rows.flags.writeable = cols.flags.writeable = False
    return maps


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
    RESIDUAL_TOL max(1, max|E|), the second catching an H that breaks SU(2).
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
    bonds = _bond_list(spec)
    # Conjugate momentum pairs (n, L-n) carry identical spectra and entropy
    # statistics, so only n = 0 .. L/2 is diagonalized.
    records = []
    for n in range(sites // 2 + 1):
        block = _assemble_block(two_s, sites, n, bonds)
        states = []  # (energy, two_j, J**2 residual, H residual, vector)
        for two_j, basis, j2_values in _spin_subspaces(two_s, sites, n):
            h_basis = block.matrix @ basis
            energies, rot = np.linalg.eigh(basis.conj().T @ h_basis)
            vectors = basis @ rot
            j2_residuals = np.abs(j2_values @ np.abs(rot) ** 2 - two_j / 2 * (two_j / 2 + 1))
            h_residuals = np.linalg.norm(h_basis @ rot - vectors * energies, axis=0)
            states += zip(energies.tolist(), [two_j] * len(energies), j2_residuals.tolist(),
                          h_residuals.tolist(), vectors.T)
        states.sort(key=lambda state: state[:2])
        scale = max(1.0, abs(states[0][0]), abs(states[-1][0]))
        central = _central_window(block.dim)
        chosen = []
        for rank, (energy, two_j, j2_residual, h_residual, vector) in enumerate(states):
            rec = EigenstateRecord(
                energy=energy,
                momentum_index=n,
                two_j=two_j,
                j2_residual=j2_residual,
                central=rank in central,
                complex_sector=block.is_complex_sector,
                flagged=j2_residual > RESIDUAL_TOL or h_residual > RESIDUAL_TOL * scale,
            )
            if rec.central and not rec.flagged:
                rec.gaussianity = gaussianity_of_vector(vector)
                chosen.append((rec, vector))
            records.append(rec)
        if fraction is not None and chosen:
            amps = _config_amplitudes(block, np.column_stack([v for _, v in chosen]), two_s)
            _, digits = configuration_space(two_s, sites, 0)
            values = slice_entanglement_entropy(amps, digits, range(cut), maps=maps)
            for (rec, _), value in zip(chosen, values):
                rec.entropy = float(value)
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
