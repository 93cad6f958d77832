import math
import os
import subprocess
import sys
import warnings
from bisect import bisect_right
from collections import Counter
from dataclasses import astuple, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    apply_total_spin_squared,
    assemble_block_direct,
    complex_resolve,
    config_amplitudes,
    flip_classes,
    hamiltonian_matrix,
    kron_hamiltonian,
    kron_spin_squared,
    momentum_blocks,
    per_block_resolve,
    restrict_to_zero_magnetization,
    slice_amplitudes,
    slice_entropy_reference,
    spin_squared_matrix,
)
from spinsectors import (
    HALF,
    ONE,
    ChainSpec,
    diagonalize_and_resolve,
    eigenstate_entropy_average,
    gaussianity_average,
    gaussianity_of_vector,
    multiplicity,
    singlet_average_exact,
    zero_magnetization_dim,
)
import spinsectors
from spinsectors import cli, ensembles, spectra
from spinsectors.ensembles import slice_entanglement_entropy
from spinsectors.spectra import (
    _bond_list,
    _bond_term,
    _momentum_block,
    _real_block,
)
from spinsectors.su2 import configuration_space, spin_squared_terms


def _rank_keys(block):
    """(tie group, 2J, energy) of one block's records, ascending in rank order:
    energies within RESIDUAL_TOL max(1, max|E|) of their neighbour share a tie
    group, and a group ranks by 2J."""
    tol = spectra.RESIDUAL_TOL * max(1.0, max(abs(r.energy) for r in block))
    energies = sorted(r.energy for r in block)
    starts = [e for prev, e in zip([-math.inf, *energies], energies) if e - prev > tol]
    return [(bisect_right(starts, r.energy), r.two_j, r.energy) for r in block]


def _coefficients(spec):
    return np.array([coeff for _, coeff, _ in _bond_list(spec)])


class TestHamiltonian:
    @pytest.mark.parametrize("two_s,sites,coupling", [(1, 6, 0.0), (1, 6, 3.0), (2, 4, 0.0), (2, 4, 1.0)])
    def test_dense_matches_kron_oracle(self, two_s, sites, coupling):
        species = HALF if two_s == 1 else ONE
        spec = ChainSpec(species, sites, coupling)
        reference = restrict_to_zero_magnetization(
            kron_hamiltonian(two_s, sites, coupling), two_s, sites
        )
        ref_spectrum = np.sort(np.linalg.eigvalsh(reference))
        got = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(spec)))
        assert np.max(np.abs(got - ref_spectrum)) < 1e-10

    def test_full_product_space_spectrum_l4(self):
        # union over all magnetization slices equals the unsymmetrized 16-dim spectrum
        spec = ChainSpec(HALF, 4, 0.0)
        reference = np.sort(np.linalg.eigvalsh(kron_hamiltonian(1, 4, 0.0)))
        slices = []
        for two_jz in range(-4, 5, 2):
            slices.append(np.linalg.eigvalsh(hamiltonian_matrix(spec, two_jz=two_jz)))
        got = np.sort(np.concatenate(slices))
        assert len(got) == 16
        assert np.max(np.abs(got - reference)) < 1e-10

    def test_polarized_state_energy(self):
        for coupling in (0.0, 3.0):
            spec = ChainSpec(HALF, 6, coupling)
            block = hamiltonian_matrix(spec, two_jz=6)
            assert block.shape == (1, 1)
            assert block[0, 0] == pytest.approx(-6 * (1 + coupling) / 4, abs=1e-12)

    def test_spin_one_rotational_multiplets(self):
        # every spin-J level of the SU(2)-symmetric chain appears n_J times in Jz=0
        spec = ChainSpec(ONE, 4, 0.5)
        records = diagonalize_and_resolve(spec, fraction=None)
        assert all(r.j2_residual < 1e-8 for r in records)

    def test_site_minimum(self):
        with pytest.raises(ValueError):
            ChainSpec(HALF, 2, 0.0)

    def test_fractional_sites_rejected(self):
        with pytest.raises(ValueError, match=r"^sites must be an integer, got 12\.5$"):
            ChainSpec(HALF, 12.5)

    @pytest.mark.parametrize("species,cap", [(HALF, 18), (ONE, 11)], ids=["half", "one"])
    def test_cap_refused_when_the_chain_is_made(self, species, cap):
        # the cap was checked by diagonalize_and_resolve, after a CLI run's earlier chains
        assert spectra.MAX_SITES[species.two_s] == cap
        ChainSpec(species, cap)
        too_many = cap + 2 if species is HALF else cap + 1
        message = f"L={too_many} exceeds the dense-diagonalization cap L<={cap} for spin {species.name}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ChainSpec(species, too_many)

    def test_fraction_coupling_is_its_float(self):
        # a Fraction reached eigh as an object array and raised UFuncTypeError
        spec = ChainSpec(HALF, 10, Fraction(1, 3))
        assert spec == ChainSpec(HALF, 10, 1 / 3) and type(spec.coupling) is float
        got = np.array([astuple(r) for r in diagonalize_and_resolve(spec)], dtype=float)
        want = np.array([astuple(r) for r in diagonalize_and_resolve(ChainSpec(HALF, 10, 1 / 3))],
                        dtype=float)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_caps(self):
        with pytest.raises(ValueError, match="cap"):
            diagonalize_and_resolve(ChainSpec(HALF, 20, 0.0), None)
        with pytest.raises(ValueError, match="cap"):
            diagonalize_and_resolve(ChainSpec(ONE, 12, 0.0), None)


class TestMomentumBlocks:
    def test_dimensions_sum_to_sector(self):
        for species, sites in ((HALF, 8), (ONE, 5)):
            blocks = momentum_blocks(ChainSpec(species, sites, 1.0))
            total = zero_magnetization_dim(sites) if species is HALF else None
            dim = sum(b.dim for b in blocks)
            if total is not None:
                assert dim == total
            else:
                assert dim == configuration_space(species.two_s, sites, 0)[0].size

    def test_l4_block_dimensions_by_orbit_counting(self):
        # configurations 0011-type (period 4) and 0101-type (period 2)
        blocks = momentum_blocks(ChainSpec(HALF, 4, 0.0))
        dims = {b.momentum_index: b.dim for b in blocks}
        assert dims == {0: 2, 1: 1, 2: 2, 3: 1}

    def test_burnside_orbit_count(self):
        # number of orbits = (1/L) sum_r fix(T^r)
        sites = 8
        codes = configuration_space(1, sites, 0)[0]
        fixes = 0
        for r in range(sites):
            for code in codes:
                bits = [(int(code) >> i) & 1 for i in range(sites)]
                if bits == bits[r:] + bits[:r]:
                    fixes += 1
        orbits = fixes // sites
        blocks = momentum_blocks(ChainSpec(HALF, sites, 0.0))
        assert blocks[0].dim == max(b.dim for b in blocks)
        assert orbits == blocks[0].dim  # k=0 keeps one state per orbit

    @pytest.mark.parametrize("two_s,sites,coupling", [(1, 8, 0.0), (1, 8, 3.0), (2, 6, 0.7)])
    def test_block_union_equals_unsymmetrized_spectrum(self, two_s, sites, coupling):
        species = HALF if two_s == 1 else ONE
        spec = ChainSpec(species, sites, coupling)
        dense = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(spec)))
        union = np.sort(
            np.concatenate([np.linalg.eigvalsh(b.matrix) for b in momentum_blocks(spec)])
        )
        assert np.max(np.abs(union - dense)) < 1e-10

    def test_conjugate_blocks_share_spectra(self):
        blocks = momentum_blocks(ChainSpec(HALF, 8, 3.0))
        for n in (1, 2, 3):
            a = np.sort(np.linalg.eigvalsh(blocks[n].matrix))
            b = np.sort(np.linalg.eigvalsh(blocks[8 - n].matrix))
            assert np.max(np.abs(a - b)) < 1e-10

    def test_complex_sector_flags(self):
        blocks = momentum_blocks(ChainSpec(HALF, 8, 0.0))
        flags = {b.momentum_index: b.is_complex_sector for b in blocks}
        assert not flags[0] and not flags[4]
        assert all(flags[n] for n in (1, 2, 3, 5, 6, 7))


def _assert_real_block_matches_direct(block, got, expected):
    # Re(U^dagger A U) of the complex momentum block A: bitwise at k = 0, pi,
    # where U = 1 and each entry sums in the same order
    basis = block.to_momentum(np.eye(len(block.reps)))
    dense = (basis.conj().T @ expected.matrix @ basis).real
    if block.complex_sector:
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.abs(expected.matrix).max()
    else:
        assert np.array_equal(got, dense)


class TestBondTermCache:
    @pytest.mark.parametrize(
        "species,sites,coupling",
        [(HALF, 10, 0.0), (HALF, 10, 0.5), (HALF, 10, 3.0), (ONE, 6, 0.0), (ONE, 6, 0.7), (ONE, 6, 1.0),
         (ONE, 7, 1.0)],
    )
    def test_cached_terms_equal_direct_assembly(self, species, sites, coupling):
        bonds = _bond_list(ChainSpec(species, sites, coupling))
        codes, _ = configuration_space(species.two_s, sites, 0)
        for n in range(sites):
            block = _momentum_block(species.two_s, sites, n)
            got = _real_block(block, _bond_term(species.two_s, sites, bonds))
            expected = assemble_block_direct(species.two_s, sites, n, bonds)
            assert np.array_equal(codes[block.reps], expected.representatives)
            _assert_real_block_matches_direct(block, got, expected)

    @pytest.mark.parametrize("two_s,sites", [(1, 10), (2, 6), (2, 7)])
    def test_spin_squared_block_equals_direct_assembly(self, two_s, sites):
        diagonal, bonds = spin_squared_terms(two_s, sites)
        for n in range(sites):
            block = _momentum_block(two_s, sites, n)
            got = _real_block(block, _bond_term(two_s, sites, bonds), diagonal)
            _assert_real_block_matches_direct(block, got, assemble_block_direct(two_s, sites, n, bonds, diagonal))

    def test_warm_call_builds_no_operator(self, monkeypatch):
        # after the cold call the (k, J) cache serves every coupling: no block
        # assembly and no bond kernel, so the bond-term tables are not needed
        spectra._spin_subspaces.cache_clear()
        diagonalize_and_resolve(ChainSpec(HALF, 8, 3.0), fraction=None)

        def forbidden(*args, **kwargs):
            raise AssertionError("operator assembled in a warm call")

        for name in ("_real_block", "_bond_term", "bond_matrix_elements"):
            monkeypatch.setattr(spectra, name, forbidden)
        records = diagonalize_and_resolve(ChainSpec(HALF, 8, 0.7))
        assert any(r.central for r in records) and not any(r.flagged for r in records)

    @pytest.mark.parametrize("two_s,sites", [(1, 12), (2, 8)])
    def test_cold_build_makes_one_table_per_operator(self, monkeypatch, two_s, sites):
        # one table for J**2 and one per bond term of H
        calls = []
        bond_term = spectra._bond_term

        def counted(*args):
            calls.append(args)
            return bond_term(*args)

        monkeypatch.setattr(spectra, "_bond_term", counted)
        spectra._spin_subspaces.cache_clear()
        spectra._spin_subspaces(two_s, sites)
        assert len(calls) == 1 + len(spectra._bond_keys(two_s))


REAL_BASIS_CASES = [(HALF, 10, 0.0), (HALF, 10, 3.0), (HALF, 12, 0.0), (HALF, 12, 3.0),
                    (ONE, 7, 0.0), (ONE, 7, 0.7), (ONE, 7, 1.0), (ONE, 8, 0.0), (ONE, 8, 0.7), (ONE, 8, 1.0)]


class TestRealBasis:
    @staticmethod
    def _dense_basis(block):
        return block.to_momentum(np.eye(len(block.reps)))

    @pytest.mark.parametrize("species,sites,coupling", REAL_BASIS_CASES)
    def test_subspace_spectra_match_momentum_blocks(self, species, sites, coupling):
        # per block: the union of the real (k, J) spectra, and the spectrum of
        # the real block, equal the complex block's spectrum
        spec = ChainSpec(species, sites, coupling)
        coeffs = _coefficients(spec)
        blocks = momentum_blocks(spec)
        term = _bond_term(species.two_s, sites, _bond_list(spec))
        for block, subspaces in spectra._spin_subspaces(species.two_s, sites):
            expected = np.linalg.eigvalsh(blocks[block.momentum_index].matrix)
            scale = np.abs(expected).max()
            union = np.sort(np.concatenate([np.linalg.eigvalsh(sub.terms @ coeffs) for sub in subspaces]))
            real = np.linalg.eigvalsh(_real_block(block, term))
            assert np.max(np.abs(union - expected)) <= 1e-12 * scale
            assert np.max(np.abs(real - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("species,sites", [(HALF, 10), (HALF, 12), (ONE, 7), (ONE, 8)])
    def test_basis_is_orthonormal_and_pk_invariant(self, species, sites):
        # P K psi(c) = conj(psi(P c)), P reversing the sites of configuration c;
        # each column combines at most two momentum states
        two_s = species.two_s
        codes, digits = configuration_space(two_s, sites, 0)
        mirror = np.searchsorted(codes, digits[:, ::-1] @ (two_s + 1) ** np.arange(sites))
        assert np.array_equal(np.sort(mirror), np.arange(len(codes)))
        blocks = momentum_blocks(ChainSpec(species, sites, 0.0))
        for n in range(sites // 2 + 1):
            block = _momentum_block(two_s, sites, n)
            basis = self._dense_basis(block)
            assert not any(x.flags.writeable for pair in block.maps for x in pair)
            assert not block.shift_phase.flags.writeable
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(len(basis)))) <= 1e-14
            assert np.count_nonzero(basis, axis=0).max() <= 2
            amps = slice_amplitudes(two_s, blocks[n], basis)
            # at k = 0, pi U = 1: K-invariant (real) columns, as H and J**2 are real there
            images = amps[mirror].conj() if block.complex_sector else amps.conj()
            assert np.max(np.abs(images - amps)) <= 1e-14

    @pytest.mark.parametrize("species,sites", [(HALF, 4), (HALF, 14), (ONE, 3), (ONE, 8)])
    def test_real_momenta_hold_the_identity_basis(self, species, sites):
        # at k = 0, pi U = 1, stored as one identity map with unit weights, and
        # to_momentum returns its input unchanged, real columns staying real
        two_s = species.two_s
        rng = np.random.default_rng(8)
        for n in [n for n in range(sites) if 2 * n % sites == 0]:
            block = _momentum_block(two_s, sites, n)
            dim = len(block.reps)
            (row_map, weight), = block.maps
            assert np.array_equal(row_map, np.arange(dim)) and np.array_equal(weight, np.ones(dim))
            assert weight.dtype == float and block.complex_sector is False
            assert not row_map.flags.writeable and not weight.flags.writeable
            assert block.shift_phase.dtype == float and not block.shift_phase.flags.writeable
            for x in (rng.standard_normal((dim, 3)), rng.standard_normal((dim, 2)) + 1j):
                assert np.array_equal(block.to_momentum(x), x) and block.to_momentum(x).dtype == x.dtype

    @pytest.mark.parametrize("species,sites,coupling", REAL_BASIS_CASES)
    def test_transformed_blocks_are_real(self, species, sites, coupling):
        diagonal, j2_bonds = spin_squared_terms(species.two_s, sites)
        for n, block in enumerate(momentum_blocks(ChainSpec(species, sites, coupling))[: sites // 2 + 1]):
            j2 = assemble_block_direct(species.two_s, sites, n, j2_bonds, diagonal).matrix
            basis = self._dense_basis(_momentum_block(species.two_s, sites, n))
            for matrix in (block.matrix, j2):
                dense = basis.conj().T @ matrix @ basis
                assert np.max(np.abs(dense.imag)) <= 1e-13 * np.abs(matrix).max()

    @pytest.mark.parametrize("species,sites,coupling", REAL_BASIS_CASES)
    def test_records_match_complex_oracle(self, species, sites, coupling):
        # records of one (block, spin) compared in energy order: ties across
        # spins may rank either way, and same-spin ties do not occur here
        spec = ChainSpec(species, sites, coupling)
        got, expected = diagonalize_and_resolve(spec), complex_resolve(spec)
        assert not any(r.flagged for r in expected)

        def by_sector(records):
            return sorted(records, key=lambda r: (r.momentum_index, r.two_j, r.energy))

        assert len(got) == len(expected)
        compared = 0
        for a, b in zip(by_sector(got), by_sector(expected)):
            assert (a.momentum_index, a.two_j, a.flagged, a.complex_sector) == (
                b.momentum_index, b.two_j, b.flagged, b.complex_sector)
            assert a.energy == pytest.approx(b.energy, abs=1e-12)
            assert a.j2_residual <= 1e-8
            if a.complex_sector and a.central and b.central:
                assert a.entropy == pytest.approx(b.entropy, abs=1e-12)
                compared += 1
        assert compared >= 0.9 * sum(r.complex_sector and r.central for r in got)


class TestFlipReduction:
    @pytest.mark.parametrize(
        "species,sites,coupling", [(HALF, 12, 0.0), (HALF, 12, 3.0), (ONE, 8, 0.0), (ONE, 8, 1.0)]
    )
    def test_every_eigenstate_is_a_flip_eigenstate(self, species, sites, coupling):
        # psi(flip c) = (-1)**(Ls - J) psi(c), and the flip reverses the sorted slice
        two_s = species.two_s
        codes, _ = configuration_space(two_s, sites, 0)
        flip = np.searchsorted(codes, (two_s + 1) ** sites - 1 - codes)
        assert np.array_equal(flip, np.arange(len(codes))[::-1])
        coeffs = _coefficients(ChainSpec(species, sites, coupling))
        for block, subspaces in spectra._spin_subspaces(two_s, sites):
            for sub in subspaces:
                _, rot = np.linalg.eigh(sub.terms @ coeffs)
                amps = config_amplitudes(block, block.to_momentum(sub.basis @ rot))
                parity = (-1) ** ((two_s * sites - sub.two_j) // 2)
                assert np.max(np.abs(amps[flip] - parity * amps)) <= 1e-12

    @pytest.mark.parametrize("species,sites,coupling", [
        (HALF, 8, 3.0), (HALF, 10, 0.0), (HALF, 12, 3.0), (HALF, 14, 3.0), (ONE, 6, 0.0), (ONE, 7, 1.0),
        (ONE, 8, 0.0)])
    def test_every_complex_eigenstate_is_reflection_conjugate(self, species, sites, coupling):
        # R = T**cut P sends site i to (cut-1-i) mod L: psi(R c) = exp(-ik cut)
        # conj psi(c) at every complex k, and each `_cut_maps` entry's mirror
        # holds, for the configuration c of each block entry, the flat index
        # of the entry in c's row at the column of R c
        two_s = species.two_s
        codes, digits = configuration_space(two_s, sites, 0)
        weights = (two_s + 1) ** np.arange(sites)
        assert np.array_equal(codes, digits @ weights)
        coeffs = _coefficients(ChainSpec(species, sites, coupling))
        amplitudes = {}
        for block, subspaces in spectra._spin_subspaces(two_s, sites):
            if block.complex_sector:
                vectors = np.hstack([sub.basis @ np.linalg.eigh(sub.terms @ coeffs)[1] for sub in subspaces])
                amplitudes[block.momentum_index] = config_amplitudes(block, block.to_momentum(vectors))
        assert len(amplitudes) == (sites - 1) // 2
        for cut in range(1, sites):
            image = np.empty_like(digits)
            image[:, [(cut - 1 - i) % sites for i in range(sites)]] = digits
            reflection = np.searchsorted(codes, image @ weights)
            for n, amps in amplitudes.items():
                phase = np.exp(-2j * math.pi * n * cut / sites)
                assert np.max(np.abs(amps[reflection] - phase * amps.conj())) <= 1e-13
            for order, shape, *_, mirror in spectra._cut_maps(two_s, sites, cut):
                # R keeps the block; entry k's mirror is its row at the column of R order[k]
                ranked = np.argsort(order)
                where = ranked[np.searchsorted(order[ranked], reflection[order])]
                assert np.array_equal(order[where], reflection[order])
                rows, cols = np.divmod(np.arange(len(order)), shape[1])
                assert np.array_equal(mirror, rows * shape[1] + where % shape[1]) and not mirror.flags.writeable

    @pytest.mark.parametrize("two_s,sites", [(1, 8), (1, 10), (1, 12), (1, 14), (2, 7), (2, 8)])
    def test_cut_maps_hold_each_kept_configuration_once(self, two_s, sites):
        # the orders cover the m_A >= 0 configurations once each, and mirror
        # is an involution that keeps every entry in its own row
        _, digits = configuration_space(two_s, sites, 0)
        for cut in range(1, sites):
            twice_m = 2 * digits[:, :cut].sum(axis=1) - cut * two_s
            maps = spectra._cut_maps(two_s, sites, cut)
            orders = np.concatenate([order for order, *_ in maps])
            assert np.array_equal(np.sort(orders), np.flatnonzero(twice_m >= 0))
            for order, shape, copies, flip_paired, mirror in maps:
                entries = np.arange(len(order))
                assert len(order) == math.prod(shape) and not order.flags.writeable
                assert (copies, flip_paired) == ((1, True) if twice_m[order[0]] == 0 else (2, False))
                assert np.array_equal(mirror[mirror], entries)
                assert np.array_equal(mirror // shape[1], entries // shape[1])

    @pytest.mark.parametrize("species,sites", [(HALF, 10), (ONE, 7)])
    def test_flip_defect_equals_slice_defect(self, species, sites):
        # the largest slice-row defect of F Q - p Q, each row scaled back by
        # sqrt(period) to its momentum-basis norm, for p = +-(-1)**(Ls - J)
        two_s = species.two_s
        _, shift, period, _ = spectra._orbit_data(two_s, sites)
        for block, subspaces in spectra._spin_subspaces(two_s, sites):
            for sub in subspaces:
                parity = (-1) ** ((two_s * sites - sub.two_j) // 2)
                basis = block.to_momentum(sub.basis)
                amps = config_amplitudes(block, basis)
                for p in (parity, -parity):
                    rows = np.linalg.norm(amps[::-1] - p * amps, axis=1) * np.sqrt(period)
                    got = spectra._flip_defect(block, shift, basis, p)
                    assert got == pytest.approx(rows.max(), abs=1e-12)
                assert spectra._flip_defect(block, shift, basis, parity) <= 1e-12
                assert spectra._flip_defect(block, shift, basis, -parity) > 0.1

    def test_flip_odd_perturbation_exceeds_tolerance(self):
        # neighbouring spins carry opposite flip parity, so a 1e-6 admixture
        # of the next subspace is flip-odd
        two_s, sites, n = 1, 10, 1
        shift = spectra._orbit_data(two_s, sites)[1]
        block, subspaces = spectra._spin_subspaces(two_s, sites)[n]
        for sub, other in zip(subspaces, subspaces[1:]):
            perturbed = sub.basis.copy()
            perturbed[:, 0] += 1e-6 * other.basis[:, 0]
            parity = (-1) ** ((two_s * sites - sub.two_j) // 2)
            defect = spectra._flip_defect(block, shift, block.to_momentum(perturbed), parity)
            assert defect > spectra.RESIDUAL_TOL

    def test_flip_defect_refuses_the_chain(self, monkeypatch, tmp_path):
        # the build certifies every (k, J) subspace once; a defect above
        # RESIDUAL_TOL at (n = 1, 2J = 2) refuses the whole chain.  The
        # unwrapped build is called, as the cache would hide the patch.
        two_s, sites = 1, 10
        block, subspaces = spectra._spin_subspaces(two_s, sites)[1]
        target = block.to_momentum(next(sub.basis for sub in subspaces if sub.two_j == 2))
        flip_defect = spectra._flip_defect

        def defective(block, shift, basis, parity):
            # the subspace of target: its columns, and only its, lie in target's span
            if block.momentum_index == 1 and np.linalg.norm(target.conj().T @ basis) ** 2 > basis.shape[1] - 0.5:
                return 1e-6
            return flip_defect(block, shift, basis, parity)

        monkeypatch.setattr(spectra, "_flip_defect", defective)
        message = r"L=10, n=1, 2J=2: the J\*\*2 eigenvectors miss the spin-flip parity .* by 1e-06"
        with pytest.raises(RuntimeError, match=message):
            spectra._spin_subspaces.__wrapped__(two_s, sites)
        spectra._spin_subspaces.cache_clear()
        out = tmp_path / "ed.csv"
        with pytest.raises(SystemExit, match=f"^error: {message}[^\n]*$"):
            cli.main(["ed", "--L", "10", "--coupling", "3", "--two-J", "0", "--out", str(out)])
        assert not out.exists()

    def test_no_slice_amplitudes_without_a_fraction(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("_schmidt_entropies called")

        monkeypatch.setattr(spectra, "_schmidt_entropies", forbidden)
        records = diagonalize_and_resolve(ChainSpec(HALF, 10, 3.0), None)
        assert any(r.central for r in records) and not any(r.flagged for r in records)

    @pytest.mark.parametrize(
        "species,sites,coupling,cuts",
        [
            (HALF, 8, 3.0, (2, 4, 5)),
            (HALF, 10, 3.0, (2, 5, 7)),
            (HALF, 12, 3.0, (3, 6, 7)),
            (ONE, 6, 0.0, (1, 3, 4)),
            (ONE, 7, 0.0, (2, 3, 5)),
            (ONE, 8, 0.0, (2, 4, 5)),
        ],
    )
    def test_reduced_blocks_match_full_path(self, monkeypatch, species, sites, coupling, cuts):
        # cuts past L/2 make the m_A = 0 block's B side its rows; every spin-1
        # m_A = 0 block holds the fixed point of the flip (all digits 1)
        _, digits = configuration_space(species.two_s, sites, 0)
        gaps = []

        def both_paths(maps, picks, cut, sites):
            reduced = kernel(maps, picks, cut, sites)
            states = np.hstack([config_amplitudes(block, picked) for block, picked in picks])
            full = slice_entanglement_entropy(states, digits, range(cut))
            gaps.append(np.max(np.abs(reduced - full)))
            return reduced

        kernel = spectra._schmidt_entropies
        monkeypatch.setattr(spectra, "_schmidt_entropies", both_paths)
        for cut in cuts:
            diagonalize_and_resolve(ChainSpec(species, sites, coupling), Fraction(cut, sites))
        # one call per run, and each of these chains is one run
        assert len(gaps) == len(cuts)
        assert max(gaps) <= 1e-12

    @pytest.mark.parametrize(
        "species,sites,coupling", [(HALF, 12, 0.0), (HALF, 12, 3.0), (ONE, 8, 0.0), (ONE, 8, 1.0), (ONE, 7, 0.0)]
    )
    def test_entropies_match_concatenated_spectra(self, monkeypatch, species, sites, coupling):
        # one kernel pass per run, each Schmidt block weighted by its copies,
        # against every spectrum of a state concatenated and summed by one
        # np.dot, block by block, from complex Schmidt blocks without the
        # phase exp(ik cut/2); at odd L or a cut other than L/2 that phase
        # and its conjugate differ by more than a sign
        _, digits = configuration_space(species.two_s, sites, 0)
        gaps = []

        def both_routes(maps, picks, cut, sites):
            got = kernel(maps, picks, cut, sites)
            want = np.concatenate([slice_entropy_reference(config_amplitudes(block, picked), digits,
                                                           range(cut), maps) for block, picked in picks])
            gaps.append(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
            return got

        kernel = spectra._schmidt_entropies
        monkeypatch.setattr(spectra, "_schmidt_entropies", both_routes)
        cuts = (sites // 2, sites // 2 - 1)
        for cut in cuts:
            diagonalize_and_resolve(ChainSpec(species, sites, coupling), Fraction(cut, sites))
        # one call per run, and each of these chains is one run
        assert len(gaps) == len(cuts)
        assert max(gaps) <= 32 * np.finfo(float).eps


RUN_CHAINS = [(HALF, 8), (HALF, 10), (HALF, 12), (HALF, 14), (ONE, 7), (ONE, 8)]
RUN_FRACTIONS = (Fraction(1, 4), Fraction(3, 8), Fraction(3, 7), Fraction(1, 2), Fraction(7, 10), None)


def _record_bits(records):
    """Every field of each record, floats as float.hex (so NaN and the sign of zero count)."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in astuple(r)) for r in records]


class TestRuns:
    # a run of momentum blocks solves its (k, J) subspaces of one size by one
    # eigh call and makes one Schmidt pass; LAPACK and BLAS still run once per
    # matrix, so every record is bitwise that of the block-by-block loop, for
    # runs of one block (STACK_BYTES = 1), the default runs and one run of the
    # whole chain (1 << 40).  No tolerance would do: at coupling 0 the
    # degenerate clusters move entropies by up to ~0.26 when H moves by ~1e-15.
    @pytest.mark.parametrize("species,sites", RUN_CHAINS)
    def test_records_equal_per_block_loop_bitwise(self, monkeypatch, species, sites):
        default = ensembles.STACK_BYTES
        for coupling in (0.0, 3.0):
            spec = ChainSpec(species, sites, coupling)
            for fraction in RUN_FRACTIONS:
                want = _record_bits(per_block_resolve(spec, fraction))
                for stack_bytes in (default, 1, 1 << 40):
                    monkeypatch.setattr(ensembles, "STACK_BYTES", stack_bytes)
                    got = _record_bits(diagonalize_and_resolve(spec, fraction))
                    assert got == want, (coupling, fraction, stack_bytes)

    def test_one_eigh_call_per_size_and_one_eigvalsh_call_per_entry_and_flip_class(self, monkeypatch):
        # a warm spin-1/2 L = 12 chain at f = 1/2 is one run: 42 (k, J)
        # subspaces of 14 sizes, and 5 Gram stacks over the central states of
        # all 7 blocks (m_A = 1, 2, 3 and the two flip classes of m_A = 0) of
        # sizes 15, 6, 1, 10 and 10; the 1 x 1 Grams of m_A = 3 skip eigvalsh
        spec = ChainSpec(HALF, 12, 3.0)
        diagonalize_and_resolve(spec)
        shapes = {"eigh": [], "eigvalsh": []}
        for name, calls in shapes.items():
            def counted(a, *args, _original=getattr(np.linalg, name), _calls=calls, **kwargs):
                _calls.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        per_block_resolve(spec)
        assert (len(shapes["eigh"]), len(shapes["eigvalsh"])) == (42, 28)
        for calls in shapes.values():
            calls.clear()
        diagonalize_and_resolve(spec)
        assert len(shapes["eigh"]) == len({shape[-1] for shape in shapes["eigh"]}) == 14
        assert sorted(shape[-1] for shape in shapes["eigvalsh"]) == [6, 10, 10, 15]

    def test_each_entry_is_diagonalized_before_the_next_is_filled(self, monkeypatch):
        # at most one entry's Grams are alive: every Gram stack of an entry
        # larger than 1 x 1 goes to eigvalsh before the next entry's stack is
        # filled, and a 1 x 1 one is read as it is formed.  A fill reads each
        # pick's `position` once, so the picks carry a logging one; the run
        # mixes a real (k = 0) and a complex-sector (k = 1) block.
        two_s, sites, cut = 1, 10, 4
        maps = spectra._cut_maps(two_s, sites, cut)
        assert any(entry[3] for entry in maps) and len(maps) > 2
        assert any(min(entry[1]) == 1 for entry in maps)
        rng = np.random.default_rng(7)
        events = []

        class LoggedPosition:
            def __init__(self, position):
                self.position = position

            def __getitem__(self, index):
                events.append("fill")
                return self.position[index]

        picks = []
        for (block, _), count in zip(spectra._spin_subspaces(two_s, sites), (2, 3)):
            picked = rng.normal(size=(len(block.reps), count))
            if block.complex_sector:
                picked = picked + 1j * rng.normal(size=picked.shape)
            picks.append((replace(block, position=LoggedPosition(block.position)),
                          picked / np.linalg.norm(picked, axis=0)))
        assert [block.complex_sector for block, _ in picks] == [False, True]

        def logged(name, original):
            def call(*args, **kwargs):
                events.append(name)
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(ensembles, "_gram", logged("gram", ensembles._gram))
        monkeypatch.setattr(np.linalg, "eigvalsh", logged("eigvalsh", np.linalg.eigvalsh))
        spectra._schmidt_entropies(maps, picks, cut, sites)
        want = []
        for _, (rows, cols), _, flip_paired, _ in maps:
            want += ["fill"] * len(picks)
            for n in (rows - rows // 2, rows // 2) if flip_paired else (rows,):
                want += ["gram"] + (["eigvalsh"] if min(n, cols) != 1 else [])
        assert events == want

    @pytest.mark.parametrize("species,sites,runs", [(HALF, 12, 1), (HALF, 14, 4), (ONE, 8, 1)])
    def test_runs_fill_stack_bytes_in_order(self, monkeypatch, species, sites, runs):
        # runs split the chain in order; each takes blocks while its Schmidt
        # stacks, central states x the largest entry x 8 bytes, fit in
        # STACK_BYTES, and at L = 12 the whole chain takes 348,800 bytes.  The
        # plan is the one `ensembles._passes` makes for the resolve itself.
        chain = spectra._spin_subspaces(species.two_s, sites)
        largest = max(len(entry[0]) for entry in spectra._cut_maps(species.two_s, sites, sites // 2))
        plans = []

        def recorded(costs):
            plans.append(ensembles._passes(costs))
            return plans[-1]

        monkeypatch.setattr(spectra, "_passes", recorded)
        diagonalize_and_resolve(ChainSpec(species, sites, 3.0))
        planned = [list(chain[start:stop]) for start, stop in plans.pop()]
        assert not plans
        assert [link for run in planned for link in run] == list(chain) and len(planned) == runs

        def size(links):
            return sum(len(spectra._central_window(len(block.reps))) for block, _ in links) * largest * 8

        for run, following in zip(planned, planned[1:] + [[]]):
            assert len(run) == 1 or size(run) <= ensembles.STACK_BYTES
            assert not following or size(run + following[:1]) > ensembles.STACK_BYTES
        if (species, sites) == (HALF, 12):
            assert size(chain) == 348_800

    @pytest.mark.parametrize("rows", [1, 2, 5, 6])
    def test_flip_classes_match_the_oracle_split(self, rows):
        # the library slices the partner rows, the oracle indexes them
        blocks = np.random.default_rng(rows).normal(size=(3, rows, 4))
        for got, want in zip(spectra._flip_classes(blocks), flip_classes(blocks), strict=True):
            assert got.shape == want.shape and np.array_equal(got, want)


class TestSpinSquared:
    @pytest.mark.parametrize("two_s,sites", [(1, 6), (2, 4)])
    def test_matches_kron_oracle_on_every_slice(self, two_s, sites):
        species = HALF if two_s == 1 else ONE
        reference = kron_spin_squared(two_s, sites)
        rng = np.random.default_rng(5)
        for two_jz in range(-two_s * sites, two_s * sites + 1, 2):
            _, digits = configuration_space(two_s, sites, two_jz)
            # the Kronecker product makes site 0 the most significant factor
            kron_index = digits @ (two_s + 1) ** np.arange(sites - 1, -1, -1)
            expected = reference[np.ix_(kron_index, kron_index)]
            dense = spin_squared_matrix(species, sites, two_jz)
            assert np.max(np.abs(dense - expected)) < 1e-12
            state = rng.standard_normal(len(digits)) + 1j * rng.standard_normal(len(digits))
            applied = apply_total_spin_squared(state, species, 2 * digits - two_s)
            assert np.max(np.abs(applied - expected @ state)) < 1e-12


class TestCommutation:
    def test_hamiltonian_commutes_with_j2(self):
        rng = np.random.default_rng(12)
        for species, sites, coupling in ((HALF, 10, 3.0), (ONE, 5, 0.4)):
            ham = hamiltonian_matrix(ChainSpec(species, sites, coupling))
            j2 = spin_squared_matrix(species, sites)
            comm = ham @ j2 - j2 @ ham
            for _ in range(20):
                v = rng.standard_normal(ham.shape[0])
                assert np.linalg.norm(comm @ v) < 1e-9 * np.linalg.norm(v)


class TestResolution:
    def test_resolve_imports_no_masked_arrays(self):
        # np.unique without return flags asks np.ma.is_masked, and importing
        # numpy.ma (~13 ms) landed in the first resolve of every process
        script = ("import sys\nimport spinsectors as ss\n"
                  "ss.diagonalize_and_resolve(ss.ChainSpec(ss.HALF, 6))\n"
                  "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(spinsectors.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_residuals_and_counts(self):
        for species, sites, coupling in ((HALF, 12, 3.0), (ONE, 8, 1.0)):
            records = diagonalize_and_resolve(ChainSpec(species, sites, coupling), fraction=None)
            assert all(r.j2_residual < 1e-8 for r in records)
            assert not any(r.flagged for r in records)
            # plain Python fields, so records serialize to JSON
            assert all(
                type(r.flagged) is bool and type(r.two_j) is int and type(r.j2_residual) is float
                for r in records
            )
            # every 2J has the parity of 2sL, and each block ascends in energy, ties by 2J
            assert all((r.two_j - species.two_s * sites) % 2 == 0 for r in records)
            for n in range(sites // 2 + 1):
                keys = _rank_keys([r for r in records if r.momentum_index == n])
                assert keys == sorted(keys)
            # across all blocks (conjugates counted twice) the J-counts match n_J
            counts = Counter()
            for r in records:
                counts[r.two_j] += 2 if r.complex_sector else 1
            assert sum(counts.values()) == configuration_space(species.two_s, sites, 0)[0].size
            for two_j, count in counts.items():
                assert count == multiplicity(species, sites, two_j)

    @pytest.mark.parametrize("species,sites", [(HALF, 12), (ONE, 8)])
    def test_couplings_up_to_1e100_resolve_unflagged_and_larger_are_refused(self, species, sites):
        # from |c| ~ 1e170 the H residual norms overflowed: records were
        # flagged wrongly, with a RuntimeWarning
        for coupling in (-1e100, 1e100):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                records = diagonalize_and_resolve(ChainSpec(species, sites, coupling))
            assert not any(r.flagged for r in records)
            assert any(not math.isnan(r.entropy) for r in records)
        for coupling in (1e101, -1e101, 1e308):
            with pytest.raises(ValueError, match=r"^\|coupling\| must be at most 1e100, got "):
                ChainSpec(species, sites, coupling)

    def test_su2_breaking_hamiltonian_is_flagged(self, monkeypatch):
        # a 1e-3 random diagonal term in the H bond terms of block n = 1 only,
        # built into a fresh (k, J) cache; J**2 keeps its symmetry, so only the
        # H residual bound, through the leakage certificates, can reveal the break
        spec = ChainSpec(HALF, 10, 3.0)
        clean = diagonalize_and_resolve(spec)
        real_block = spectra._real_block
        rng = np.random.default_rng(3)

        def broken(block, terms, diagonal_shift=0.0):
            matrix = real_block(block, terms, diagonal_shift)
            if block.momentum_index == 1 and diagonal_shift == 0.0:  # J**2 blocks carry a diagonal shift
                matrix += np.diag(1e-3 * rng.standard_normal(len(matrix)))
            return matrix

        monkeypatch.setattr(spectra, "_real_block", broken)
        spectra._spin_subspaces.cache_clear()
        try:
            records = diagonalize_and_resolve(spec)
        finally:
            spectra._spin_subspaces.cache_clear()
        assert all(r.flagged == (r.momentum_index == 1) for r in records)
        for two_j in (0, 2):
            kept = [
                r.entropy
                for r in clean
                if r.central and r.complex_sector and r.two_j == two_j and r.momentum_index != 1
            ]
            got = eigenstate_entropy_average(records, two_j).mean
            assert got == pytest.approx(np.mean(kept), abs=1e-12)

    def test_selftest_sees_energies_off_the_dense_spectrum(self, monkeypatch):
        # the H bond terms of block n = 1 scaled by 1 + 1e-9 keep SU(2) and
        # the flip symmetry, so no record is flagged, but its energies leave
        # the spectrum of the dense slice H
        from spinsectors import selftest

        real_block = spectra._real_block

        def scaled(block, term, diagonal_shift=0.0):
            matrix = real_block(block, term, diagonal_shift)
            return matrix * (1 + 1e-9) if block.momentum_index == 1 and diagonal_shift == 0.0 else matrix

        monkeypatch.setattr(spectra, "_real_block", scaled)
        spectra._spin_subspaces.cache_clear()
        try:
            with pytest.raises(AssertionError, match=r"^\(6, "):
                selftest._check_spectra()
        finally:
            spectra._spin_subspaces.cache_clear()

    @pytest.mark.parametrize("two_s,sites", [(1, 6), (2, 4)])
    def test_selftest_sees_a_wrong_model(self, monkeypatch, two_s, sites):
        # the selftest built its dense H from `_bond_list`, so a sign flipped
        # there changed its reference with the spectrum and passed; the flip
        # stands for an edit of `_bond_list` itself, so it replaces any name
        # the selftest imported too
        from spinsectors import selftest

        bond_list = spectra._bond_list

        def flipped(spec):
            bonds = bond_list(spec)
            if spec.species.two_s != two_s:
                return bonds
            *head, (dist, coeff, power) = bonds
            return (*head, (dist, -coeff, power))

        monkeypatch.setattr(spectra, "_bond_list", flipped)
        monkeypatch.setattr(selftest, "_bond_list", flipped, raising=False)
        with pytest.raises(AssertionError, match=rf"^\({sites}, "):
            selftest._check_spectra()

    def test_real_blocks_own_their_data(self):
        # the cached J**2 eigenbasis and projections are built from contiguous real blocks
        real = _real_block(_momentum_block(1, 10, 1), _bond_term(1, 10, ((1, 1.0, 1),)))
        assert real.dtype == float and real.flags.c_contiguous and real.flags.owndata

    def test_central_window(self):
        from spinsectors.spectra import _central_window

        assert _central_window(245) == range(98, 147)
        assert _central_window(10) == range(4, 6)
        assert _central_window(3) == range(1, 2)

    # the last four cases hold exact cross-J degeneracies a few ulps apart
    @pytest.mark.parametrize("species,sites,coupling", [(HALF, 12, 0.0), (HALF, 12, 3.0), (ONE, 8, 1.0),
                                                        (HALF, 10, 0.0), (ONE, 8, 0.0), (ONE, 8, 0.7)])
    def test_record_order_window_and_types(self, species, sites, coupling):
        from spinsectors.spectra import _central_window

        records = diagonalize_and_resolve(ChainSpec(species, sites, coupling))
        for n in range(sites // 2 + 1):
            block = [r for r in records if r.momentum_index == n]
            keys = _rank_keys(block)
            assert keys == sorted(keys)
            window = _central_window(len(block))
            assert [rank for rank, r in enumerate(block) if r.central] == list(window)
        for r in records:
            assert [type(v) for v in (r.energy, r.j2_residual, r.entropy, r.gaussianity)] == [float] * 4
            assert [type(v) for v in (r.two_j, r.momentum_index)] == [int] * 2
            assert [type(v) for v in (r.central, r.complex_sector, r.flagged)] == [bool] * 3

    def test_entropy_bound(self):
        spec = ChainSpec(HALF, 12, 3.0)
        records = diagonalize_and_resolve(spec)
        bound = 6 * math.log(2) + 1e-9
        values = [r.entropy for r in records if r.central and not r.flagged]
        assert values and all(0.0 <= value <= bound for value in values)

    def test_average_without_entropies_asks_for_a_fraction(self):
        records = diagonalize_and_resolve(ChainSpec(HALF, 8, 3.0), fraction=None)
        assert any(r.central and r.complex_sector and r.two_j == 0 for r in records)
        with pytest.raises(ValueError, match="carry no entropy: resolve them with a fraction"):
            eigenstate_entropy_average(records, 0)
        with pytest.raises(ValueError, match="no central eigenstates with two_j=16"):
            eigenstate_entropy_average(records, 16)

    def test_chaotic_average_near_singlet_exact(self):
        spec = ChainSpec(HALF, 14, 3.0)
        records = diagonalize_and_resolve(spec)
        est = eigenstate_entropy_average(records, 0)
        exact = singlet_average_exact(14, 7)
        assert abs(est.mean - exact) / exact < 0.10

    def test_cut_translation_invariance(self):
        # momentum eigenstates: the sector mean is invariant under shifting the cut
        spec = ChainSpec(HALF, 12, 3.0)
        two_s, sites = 1, 12
        _, digits = configuration_space(two_s, sites, 0)
        block = assemble_block_direct(two_s, sites, 2, _bond_list(spec))
        energies, vectors = np.linalg.eigh(block.matrix)
        amps = config_amplitudes(_momentum_block(two_s, sites, 2), vectors[:, ::7])
        means = []
        for offset in (0, 1):
            sites_a = [(offset + i) % sites for i in range(6)]
            values = [slice_entanglement_entropy(a, digits, sites_a) for a in amps.T]
            means.append(np.mean(values))
        assert means[0] == pytest.approx(means[1], abs=1e-9)


class TestLevelStatistics:
    def test_spin_one_integrability_signature(self):
        # qualitative smoke test (not an acceptance gate): gap-ratio statistics
        # within (k, J)-resolved sectors look random-matrix-like at the chaotic
        # point and Poisson-like (~0.386) at the integrable one
        from collections import defaultdict

        means = {}
        for coupling in (0.0, 1.0):
            spec = ChainSpec(ONE, 9, coupling)
            records = diagonalize_and_resolve(spec, fraction=None)
            groups = defaultdict(list)
            for r in records:
                if r.complex_sector and not r.flagged:
                    groups[(r.momentum_index, r.two_j)].append(r.energy)
            ratios = []
            for energies in groups.values():
                e = np.sort(energies)
                if len(e) < 6:
                    continue
                gaps = np.diff(e)
                gaps = gaps[gaps > 1e-12]
                ratios.append(np.minimum(gaps[1:], gaps[:-1]) / np.maximum(gaps[1:], gaps[:-1]))
            means[coupling] = float(np.mean(np.concatenate(ratios)))
        assert means[0.0] > means[1.0] + 0.05
        assert means[1.0] == pytest.approx(2 * math.log(2) - 1, abs=0.04)


class TestGaussianity:
    def test_uniform_vector(self):
        assert gaussianity_of_vector(np.ones(64) / 8.0) == pytest.approx(1.0, abs=1e-12)

    def test_standard_basis_vector(self):
        v = np.zeros(100)
        v[3] = 1.0
        assert gaussianity_of_vector(v) == pytest.approx(100.0, abs=1e-9)

    def test_gaussian_vectors_reach_random_matrix_value(self):
        rng = np.random.default_rng(8)
        values = [gaussianity_of_vector(rng.standard_normal(10**4)) for _ in range(60)]
        assert np.mean(values) == pytest.approx(math.pi / 2, rel=0.02)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            gaussianity_of_vector(np.zeros(4))

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            gaussianity_of_vector(np.full(4, math.nan))
        stack = np.ones((4, 3), dtype=complex)
        stack[2, 1] = complex(1.0, math.inf)
        with pytest.raises(ValueError, match="non-finite"):
            gaussianity_of_vector(stack)

    def test_three_dimensional_or_empty_input_rejected(self):
        # a 3-d array is not read as its first column
        with pytest.raises(ValueError, match=r"got shape \(4, 2, 3\)$"):
            gaussianity_of_vector(np.ones((4, 2, 3)))
        with pytest.raises(ValueError, match=r"got shape \(0,\)$"):
            gaussianity_of_vector(np.zeros(0))

    def test_column_stack_gives_each_column(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((245, 7)) + 1j * rng.standard_normal((245, 7))
        got = gaussianity_of_vector(stack)
        assert got.shape == (7,)
        assert got.tolist() == [gaussianity_of_vector(stack[:, j]) for j in range(7)]
        assert type(gaussianity_of_vector(stack[:, 0])) is float

    def test_vanishing_real_column_is_named(self):
        stack = np.ones((4, 3), dtype=complex)
        stack[:, 1] = 1j
        with pytest.raises(ValueError, match=r"^column 1 of vector has identically vanishing real part$"):
            gaussianity_of_vector(stack)
        with pytest.raises(ValueError, match=r"^vector has identically vanishing real part$"):
            gaussianity_of_vector(stack[:, 1])
