import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    apply_total_spin_squared,
    clebsch_gordan_exact,
    coupled_sector_basis,
    sector_basis,
    stretched_column_logs,
    stretched_weight,
    stretched_weight_log,
)
from spinsectors import HALF, ONE, clebsch_gordan, ensembles, multiplicity, spin_half_multiplicity, su2
from spinsectors.su2 import (
    _lnfact_table,
    _stretched_pass,
    bond_matrix_elements,
    configuration_space,
    spin_squared_terms,
)

# the bytes `ensembles._stretched_entropies` plans per stretched entry: 8,192 entries per
# pass at the default STACK_BYTES
ENTRY_BYTES = 128


def planned_columns(pairs, monkeypatch):
    """Each pair's column as the closed forms form it: the passes of one
    `ensembles._stretched_entropies` call, recorded and split."""
    columns, kernel = [], ensembles._stretched_pass

    def recorded(ja, jb):
        logs, starts = kernel(ja, jb)
        columns.extend(np.split(logs, starts[1:]))
        return logs, starts

    with monkeypatch.context() as patch:
        patch.setattr(ensembles, "_stretched_pass", recorded)
        ensembles._stretched_entropies(pairs)
    return columns


def column_alone(two_ja, two_jb):
    """One pair's column from a pass of its own."""
    return _stretched_pass(np.array([two_ja]), np.array([two_jb]))[0]


class TestClebschGordan:
    def test_singlet_closed_form(self):
        for two_ja in (1, 2, 3, 4, 7):
            for two_m in range(-two_ja, two_ja + 1, 2):
                expected = (-1.0) ** ((two_ja - two_m) // 2) / math.sqrt(two_ja + 1)
                got = clebsch_gordan(two_ja, two_m, two_ja, -two_m, 0, 0)
                assert got == pytest.approx(expected, abs=1e-13)

    def test_stretched_aligned_is_one(self):
        assert clebsch_gordan(3, 3, 5, 5, 8, 8) == pytest.approx(1.0, abs=1e-13)
        assert clebsch_gordan(2, 2, 2, 2, 4, 4) == pytest.approx(1.0, abs=1e-13)

    def test_two_spin_half_table(self):
        r = 1 / math.sqrt(2)
        assert clebsch_gordan(1, 1, 1, -1, 2, 0) == pytest.approx(r, abs=1e-14)
        assert clebsch_gordan(1, -1, 1, 1, 2, 0) == pytest.approx(r, abs=1e-14)
        assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(r, abs=1e-14)
        assert clebsch_gordan(1, -1, 1, 1, 0, 0) == pytest.approx(-r, abs=1e-14)

    def test_selection_rules_return_zero(self):
        assert clebsch_gordan(2, 0, 2, 0, 6, 0) == 0.0  # triangle violated
        assert clebsch_gordan(2, 2, 2, 0, 4, 0) == 0.0  # M != m1+m2
        assert clebsch_gordan(2, 4, 2, -2, 2, 2) == 0.0  # |m1| > j1

    def test_odd_parity_zero_magnetization_is_exactly_zero(self):
        # <j1 0; j2 0|J 0> = 0 for odd j1 + j2 + J; the Racah sum left up to
        # 3.7e-12 there (1.5e-17 at j1 = j2 = J = 3)
        for two_j1 in range(0, 41, 2):
            for two_j2 in range(0, 41, 2):
                for two_j in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
                    if (two_j1 + two_j2 + two_j) // 2 % 2:
                        assert clebsch_gordan(two_j1, 0, two_j2, 0, two_j, 0) == 0.0

    def test_small_grid_matches_exact_racah_sum(self):
        # every entry with 2j1, 2j2 <= 12, at every M and J; the J**2
        # recursion reads 9.4e-16 here, a dense J**2 eigensolve 2.2e-15
        worst = 0.0
        for two_j1 in range(13):
            for two_j2 in range(13):
                for two_j in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
                    for two_m in range(-two_j, two_j + 1, 2):
                        for two_m1 in range(-two_j1, two_j1 + 1, 2):
                            args = (two_j1, two_m1, two_j2, two_m - two_m1, two_j, two_m)
                            worst = max(worst, abs(clebsch_gordan(*args) - clebsch_gordan_exact(*args)))
        assert worst <= 1.5e-15

    @pytest.mark.parametrize("two_j1,two_j2,two_j,two_m", [
        (370, 372, 4, 0), (301, 299, 2, 2), (400, 300, 100, 40), (151, 149, 4, -2),
        (250, 251, 3, 1), (300, 100, 220, -20), (64, 400, 390, 10), (399, 401, 6, -4),
        (600, 600, 1200, 0),
    ])
    def test_sampled_large_columns_match_exact_racah_sum(self, two_j1, two_j2, two_j, two_m):
        # a dense J**2 eigensolve read 9.3e-14 at (370, 372, 4, 0), whose odd
        # parity zeroes the centre row; at (600, 600, 1200, 0) each run grows
        # past 2**1000 beyond the join, which must not push the rows kept into
        # underflow
        args = [(two_j1, m1, two_j2, two_m - m1, two_j, two_m) for m1 in range(-two_j1, two_j1 + 1, 2)
                if abs(two_m - m1) <= two_j2]
        got = np.array([clebsch_gordan(*a) for a in args])
        exact = np.array([clebsch_gordan_exact(*a) for a in args])
        assert np.abs(got - exact).max() <= 3e-14

    @pytest.mark.parametrize("two_j1,two_j2,two_j", [
        (96, 96, 96), (128, 128, 64), (200, 200, 0), (200, 200, 200), (200, 100, 100), (100, 200, 102),
    ])
    def test_large_spin_columns_match_exact_racah_sum(self, two_j1, two_j2, two_j):
        # the stretched columns start near 1e-60, and (200, 100, 100) with
        # alternating entries below 1e-9: both runs of the recursion start in
        # such a tail, and row 0 must keep its Condon-Shortley sign
        mm = min(two_j1, two_j2)
        column = [(two_j1, two_m1, two_j2, -two_m1, two_j, 0) for two_m1 in range(-mm, mm + 1, 2)]
        got = np.array([clebsch_gordan(*args) for args in column])
        exact = np.array([clebsch_gordan_exact(*args) for args in column])
        assert np.abs(got - exact).max() <= 1e-12
        assert abs(np.sum(got**2) - 1.0) <= 1e-12

    def test_integrality_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0, 1, 1, 2, 1)
        with pytest.raises(ValueError):
            clebsch_gordan(-2, 0, 2, 0, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        two_j1=st.integers(0, 8),
        two_j2=st.integers(0, 8),
        data=st.data(),
    )
    def test_orthogonality(self, two_j1, two_j2, data):
        two_m = data.draw(
            st.integers(-(two_j1 + two_j2), two_j1 + two_j2).filter(
                lambda m: (m - two_j1 - two_j2) % 2 == 0
            )
        )
        couplings = [
            tj
            for tj in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
            if abs(two_m) <= tj
        ]
        for two_a in couplings:
            for two_b in couplings:
                acc = 0.0
                for two_m1 in range(-two_j1, two_j1 + 1, 2):
                    two_m2 = two_m - two_m1
                    if abs(two_m2) > two_j2:
                        continue
                    acc += clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_a, two_m) * \
                        clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_b, two_m)
                assert acc == pytest.approx(1.0 if two_a == two_b else 0.0, abs=1e-12)


class TestStretchedWeight:
    def test_two_spin_half(self):
        assert stretched_weight(1, 1, 1) == pytest.approx(0.5, abs=1e-14)

    def test_normalization(self):
        total = sum(stretched_weight(6, 10, m) for m in range(-6, 7, 2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_exact_binomial_oracle(self):
        # independent exact-rational evaluation of the same binomial identity
        for two_ja, two_jb, two_m in ((6, 10, 2), (40, 40, 0), (500, 500, 20)):
            ja, jb, m = two_ja // 2, two_jb // 2, two_m // 2
            exact = Fraction(
                math.comb(2 * ja, ja - m) * math.comb(2 * jb, jb + m),
                math.comb(2 * ja + 2 * jb, ja + jb),
            )
            assert stretched_weight(two_ja, two_jb, two_m) == pytest.approx(
                float(exact), rel=1e-11
            )

    def test_matches_squared_cg(self):
        for two_ja, two_jb in ((2, 4), (3, 3), (5, 1)):
            for two_m in range(-min(two_ja, two_jb), min(two_ja, two_jb) + 1, 2):
                cg = clebsch_gordan(two_ja, two_m, two_jb, -two_m, two_ja + two_jb, 0)
                assert stretched_weight(two_ja, two_jb, two_m) == pytest.approx(
                    cg * cg, abs=1e-13
                )

    def test_large_spin_variance(self):
        # weight distribution variance ~ J_A J_B / (2J) = f(1-f)L/4 at L=1000
        var = sum(
            (m / 2) ** 2 * stretched_weight(500, 500, m) for m in range(-500, 501, 2)
        )
        assert var == pytest.approx(62.5, rel=0.02)

    def test_out_of_range_m(self):
        assert stretched_weight(2, 4, 4) == 0.0
        assert stretched_weight_log(2, 4, 4) == -math.inf

    def test_column_equals_scalar_bitwise(self, monkeypatch):
        # the columns read one lgamma table and keep log_binomial's order of
        # float operations, so every entry equals the scalar exactly, whether
        # a column is evaluated alone or in a pass with others (this grid
        # spans several passes)
        grid = [(a, b) for a in range(0, 41) for b in range(a % 2, 41, 2)]
        grid += [(a, b) for a in range(0, 5001, 250) for b in range(0, 5001 - a, 250)]
        grid += [(a + 1, b + 1) for a, b in grid if a + b + 2 <= 5000]
        grid += [(5000, 0), (0, 5000), (4999, 1), (2500, 2500), (1234, 3766)]
        columns = planned_columns(grid, monkeypatch)
        assert len(columns) == len(grid)
        for (two_ja, two_jb), column in zip(grid, columns):
            mm = min(two_ja, two_jb)
            scalar = [stretched_weight_log(two_ja, two_jb, m) for m in range(-mm, mm + 1, 2)]
            assert column.tolist() == scalar
            assert column_alone(two_ja, two_jb).tolist() == scalar
            assert stretched_column_logs(two_ja, two_jb).tolist() == scalar

    def test_pass_size_leaves_every_column_bitwise(self, monkeypatch):
        # a budget of 1 byte holds one column per pass, 3 entries' worth at
        # most 3 entries or one column, the default at most 8,192 entries of
        # these ~100,000, and 2**40 all of them; each column's entropy is one
        # segment of its pass's sum, so it does not move either
        grid = [(a, b) for a in range(70) for b in range(a % 2, 100, 2)] + [(2500, 2500), (1234, 3766)]
        runs, entropies = [], []
        for stack_bytes in (1, 3 * ENTRY_BYTES, ensembles.STACK_BYTES, 2**40):
            monkeypatch.setattr(ensembles, "STACK_BYTES", stack_bytes)
            runs.append([col.tobytes() for col in planned_columns(grid, monkeypatch)])
            entropies.append(np.array(ensembles._stretched_entropies(grid)).tobytes())
        assert len(runs[0]) == len(grid) and all(run == runs[0] for run in runs[1:])
        assert all(values == entropies[0] for values in entropies[1:])

    @pytest.mark.parametrize("stack_bytes, pairs, passes", [
        # passes were cut where the running count crossed a multiple of the
        # pass size, so the long column shared its pass with 4,572 more entries;
        # the default STACK_BYTES holds 8,192 entries
        pytest.param(1 << 20, [(20000, 20000)] + [(2, 2)] * 3000 + [(5, 9)], [20001, 8190, 816],
                     id="long-column-first"),
        pytest.param(10 * ENTRY_BYTES, [(2, 2)] * 2 + [(30, 30)] + [(2, 2)] * 5, [6, 31, 9, 6],
                     id="long-column-between"),
    ])
    def test_a_pass_holds_at_most_the_pass_size_or_one_column(self, monkeypatch, stack_bytes, pairs, passes):
        built, build = [], ensembles._stretched_pass

        def recorded(ja, jb):
            built.append(int((np.minimum(ja, jb) + 1).sum()))
            return build(ja, jb)

        monkeypatch.setattr(ensembles, "_stretched_pass", recorded)
        monkeypatch.setattr(ensembles, "STACK_BYTES", stack_bytes)
        assert len(ensembles._stretched_entropies(pairs)) == len(pairs)
        assert built == passes

    def test_no_pairs_give_no_columns(self):
        assert ensembles._passes([]) == [] and ensembles._stretched_entropies([]) == []

    def test_column_table_is_read_only(self):
        ensembles._stretched_entropies([(6, 10)])
        assert not _lnfact_table(16).flags.writeable

    @pytest.fixture
    def fresh_table(self, monkeypatch):
        """Start from the empty table a new process has; the process's own comes back after."""
        empty = np.empty(0)
        empty.flags.writeable = False
        monkeypatch.setattr(su2, "_LNFACT", empty)

    def test_one_table_grows_to_the_size_asked(self, fresh_table, monkeypatch):
        computed = []
        monkeypatch.setattr(su2, "math", SimpleNamespace(
            lgamma=lambda x: computed.append(x) or math.lgamma(x)))
        tables = {}
        for size in (16, 5, 10001, 100):
            table = tables[size] = _lnfact_table(size)
            assert not table.flags.writeable
            assert size <= len(table) <= 2 * 10001
            assert table[:size].tolist() == [math.lgamma(k + 1) for k in range(size)]
        # a smaller size is served from the table already built, not a new one
        assert tables[5] is tables[16] and tables[100] is tables[10001]
        # each entry is computed once, and a table that has to grow at least doubles
        have = len(tables[10001])
        assert len(_lnfact_table(have + 1)) >= 2 * have
        assert sorted(computed) == list(range(1, len(_lnfact_table(1)) + 1))

    def test_large_column_is_bitwise_stable_around_small_pairs(self, fresh_table):
        small = np.array([1, 6, 2]), np.array([3, 10, 2])
        first_small = _stretched_pass(*small)[0].tobytes()
        before = column_alone(5000, 5000).tobytes()
        assert _stretched_pass(*small)[0].tobytes() == first_small
        assert column_alone(5000, 5000).tobytes() == before

    def test_numpy_spins_give_the_python_columns(self, monkeypatch):
        pairs = [(6, 10), (5, 3), (0, 4)]
        spins = [(np.int64(a), np.int32(b)) for a, b in pairs]
        assert ([c.tolist() for c in planned_columns(spins, monkeypatch)]
                == [c.tolist() for c in planned_columns(pairs, monkeypatch)])
        assert ensembles._stretched_entropies(spins) == ensembles._stretched_entropies(pairs)


class TestSectorBasis:
    def test_two_site_singlet(self):
        basis = sector_basis(HALF, 2, 0, 0)
        assert len(basis) == 1
        amps = sorted(basis.vectors[0])
        assert amps[0] == pytest.approx(-1 / math.sqrt(2), abs=1e-14)
        assert amps[1] == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_four_site_singlets(self):
        basis = sector_basis(HALF, 4, 0, 0)
        assert len(basis) == 2
        gram = basis.vectors @ basis.vectors.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        for v in basis.vectors:
            residual = apply_total_spin_squared(v, HALF, basis.configs)
            assert np.max(np.abs(residual)) < 1e-10

    def test_spin_one_count(self):
        basis = sector_basis(ONE, 3, 2, 0)
        assert len(basis) == 3

    def test_empty_sector_is_empty_basis(self):
        basis = sector_basis(ONE, 1, 0, 0)
        assert len(basis) == 0

    @pytest.mark.parametrize("sites", [2, 4, 6, 8])
    def test_certification(self, sites):
        for two_j in range(sites % 2, sites + 1, 2):
            basis = sector_basis(HALF, sites, two_j, 0)
            assert len(basis) == spin_half_multiplicity(sites, two_j)
            if not len(basis):
                continue
            gram = basis.vectors @ basis.vectors.T
            assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12
            eigval = (two_j / 2) * (two_j / 2 + 1)
            for v in basis.vectors:
                residual = apply_total_spin_squared(v, HALF, basis.configs) - eigval * v
                assert np.max(np.abs(residual)) < 1e-10

    def test_eigenvalue_of_j2_on_spin2_sector(self):
        basis = sector_basis(HALF, 8, 4, 0)
        for v in basis.vectors:
            out = apply_total_spin_squared(v, HALF, basis.configs)
            assert np.max(np.abs(out - 6.0 * v)) < 1e-10


class TestCoupledBasis:
    def test_four_site_pairings(self):
        basis = coupled_sector_basis(HALF, 4, 2, 0, 0)
        assert len(basis) == 2
        assert [lab[:2] for lab in basis.labels] == [(0, 0), (2, 2)]

    def test_stretched_single_vector(self):
        basis = coupled_sector_basis(HALF, 6, 3, 6, 0)
        assert len(basis) == 1

    def test_count_equals_multiplicity(self):
        assert len(coupled_sector_basis(HALF, 6, 2, 2, 0)) == 9
        assert len(coupled_sector_basis(ONE, 3, 1, 2, 0)) == multiplicity(ONE, 3, 2)

    @pytest.mark.parametrize("sites,cut,two_j", [(4, 2, 0), (6, 3, 2), (8, 4, 0), (10, 5, 2)])
    def test_spans_same_subspace_as_direct(self, sites, cut, two_j):
        direct = sector_basis(HALF, sites, two_j, 0)
        coupled = coupled_sector_basis(HALF, sites, cut, two_j, 0)
        assert len(direct) == len(coupled)
        overlap = coupled.vectors @ direct.vectors.T
        singular = np.linalg.svd(overlap, compute_uv=False)
        assert np.max(np.abs(singular - 1.0)) < 1e-10

    def test_vectors_are_j2_eigenstates(self):
        basis = coupled_sector_basis(HALF, 6, 2, 4, 0)
        for v in basis.vectors:
            out = apply_total_spin_squared(v, HALF, basis.configs)
            assert np.max(np.abs(out - 6.0 * v)) < 1e-10

    def test_invalid_cut(self):
        with pytest.raises(ValueError):
            coupled_sector_basis(HALF, 4, 0, 0, 0)


class TestOperators:
    def test_singlet_annihilated_by_j2(self):
        basis = sector_basis(HALF, 2, 0, 0)
        out = apply_total_spin_squared(basis.vectors[0], HALF, basis.configs)
        assert np.max(np.abs(out)) < 1e-14

    def test_polarized_state_eigenvalue(self):
        configs = np.array([[1, 1, 1, 1]], dtype=np.int8)
        state = np.array([1.0])
        out = apply_total_spin_squared(state, HALF, configs)
        assert out[0] == pytest.approx(6.0, abs=1e-12)  # J=2 -> J(J+1)=6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_total_spin_squared(np.ones(3), HALF, np.array([[1, -1]]))

    def test_configuration_left_by_j2_rejected(self):
        # the diagonal of J**2 keeps digits [1, 0] (code 1), which the target
        # codes [2] lack
        _, bonds = spin_squared_terms(1, 2)
        with pytest.raises(ValueError, match="outside"):
            bond_matrix_elements(1, [[1, 0]], bonds, np.array([2]))

    def test_codes_beyond_64_bits_rejected(self):
        # 2**64 spin-1/2 configurations do not fit 64-bit codes; J_z = 64 keeps
        # the slice at one row
        with pytest.raises(ValueError, match="overflow"):
            configuration_space(1, 64, 64)
