import math
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import QUADRATURE_MAX_SITES, multiplicity_by_quadrature, sector_dimensions
from spinsectors import combinatorics
from spinsectors import (
    HALF,
    ONE,
    ChainSpec,
    SectorLabel,
    SpinSpecies,
    admissible_two_j,
    hilbert_fraction,
    log_multiplicity_saddle,
    multiplicity,
    multiplicity_rate,
    multiplicity_table,
    saddle_solve,
    spin_half_multiplicity,
    spin_half_multiplicity_log,
    zero_magnetization_dim,
)

# printed Pascal-like triangle of spin-1/2 multiplicities, keys are 2J
TRIANGLE = {
    0: {0: 1},
    1: {1: 1},
    2: {0: 1, 2: 1},
    3: {1: 2, 3: 1},
    4: {0: 2, 2: 3, 4: 1},
    5: {1: 5, 3: 4, 5: 1},
    6: {0: 5, 2: 9, 4: 5, 6: 1},
}


class TestSpinHalfMultiplicity:
    @pytest.mark.parametrize(
        "sites,two_j,expected",
        [(6, 2, 9), (4, 0, 2), (0, 0, 1), (5, 1, 5), (6, 6, 1), (4, 4, 1)],
    )
    def test_known_values(self, sites, two_j, expected):
        assert spin_half_multiplicity(sites, two_j) == expected

    def test_triangle_rows(self):
        for sites, row in TRIANGLE.items():
            got = {tj: n for tj, n in multiplicity_table(HALF, sites).items() if n}
            assert got == row

    def test_closed_form_equals_recursion(self):
        for sites in range(25):
            table = multiplicity_table(HALF, sites)
            for two_j in admissible_two_j(HALF, sites):
                assert spin_half_multiplicity(sites, two_j) == table.multiplicity(two_j)

    def test_log_form_matches(self):
        for sites, two_j in ((10, 2), (40, 0), (60, 30), (200, 100)):
            exact = math.log(spin_half_multiplicity(sites, two_j))
            assert spin_half_multiplicity_log(sites, two_j) == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(sites=st.integers(1602, 12000), factored=st.booleans(), data=st.data())
    def test_factored_binomials_equal_math_comb(self, sites, factored, data):
        # C(n, k) is a product of prime powers once k*k > COMB_CROSSOVER * n, k <= n/2;
        # from n = 1602 on both sides hold some k
        edge = math.isqrt(combinatorics.COMB_CROSSOVER * sites)  # the last k left to math.comb
        k = data.draw(st.integers(edge + 1, sites // 2) if factored else st.integers(0, edge))
        assert (k * k > combinatorics.COMB_CROSSOVER * sites) == factored
        for q in (k, sites - k):
            assert combinatorics._binomial(sites, q) == math.comb(sites, q)

    @pytest.mark.parametrize("sites,two_j", [(4, 1), (4, 6), (3, -1)])
    def test_invalid_labels_raise(self, sites, two_j):
        with pytest.raises(ValueError):
            spin_half_multiplicity(sites, two_j)

    @pytest.mark.parametrize("call,name,value", [
        (lambda: spin_half_multiplicity(4.0, 2), "sites", "4.0"),
        (lambda: spin_half_multiplicity(4, 2.0), "two_j", "2.0"),
        (lambda: multiplicity_table(HALF, 2.5), "sites", "2.5"),
        *[(partial(function, *head, size), "sites", repr(size))
          for function, head in ((zero_magnetization_dim, ()), (admissible_two_j, (HALF,)))
          for size in (2.0, 1.5, math.nan, None, Fraction(3, 2))],
    ], ids=["multiplicity-sites", "multiplicity-two_j", "table-sites",
            *[f"{name}-{size}" for name in ("dim", "admissible")
              for size in ("2.0", "1.5", "nan", "None", "3/2")]])
    def test_non_integer_labels_name_the_argument(self, call, name, value):
        # math.comb and range raised a TypeError that named no argument
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(value)}$"):
            call()

    @pytest.mark.parametrize("call", [lambda: zero_magnetization_dim(-2), lambda: admissible_two_j(HALF, -2)],
                             ids=["dim", "admissible"])
    def test_negative_sizes_are_refused(self, call):
        # math.comb refused -2 with its own message, and range gave no spins
        with pytest.raises(ValueError, match=r"^sites must be >= 0, got -2$"):
            call()


class TestFusionTable:
    def test_spin_one_small(self):
        assert dict(multiplicity_table(ONE, 2).items()) == {0: 1, 2: 1, 4: 1}
        assert dict(multiplicity_table(ONE, 3).items()) == {0: 1, 2: 3, 4: 2, 6: 1}

    @settings(max_examples=40, deadline=None)
    @given(two_s=st.sampled_from([1, 2]), sites=st.integers(0, 18))
    def test_total_dimension_identity(self, two_s, sites):
        species = SpinSpecies(two_s)
        table = multiplicity_table(species, sites)
        assert table.total_dimension() == species.local_dim**sites

    def test_irrep_count_identity_spin_half(self):
        for sites in range(1, 21):
            table = multiplicity_table(HALF, sites)
            assert table.irrep_count() == zero_magnetization_dim(sites)


class TestQuadrature:
    @pytest.mark.parametrize(
        "species,sites,two_j,expected",
        [(HALF, 6, 2, 9), (HALF, 2, 0, 1), (ONE, 3, 2, 3)],
    )
    def test_spot_values(self, species, sites, two_j, expected):
        assert multiplicity_by_quadrature(species, sites, two_j) == expected

    def test_matches_recursion_up_to_cap(self):
        for species in (HALF, ONE):
            cap = QUADRATURE_MAX_SITES[species.two_s]
            for sites in range(1, cap + 1):
                table = multiplicity_table(species, sites)
                for two_j in admissible_two_j(species, sites):
                    assert multiplicity_by_quadrature(species, sites, two_j) == \
                        table.multiplicity(two_j), (species.name, sites, two_j)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            multiplicity_by_quadrature(HALF, 53, 1)
        with pytest.raises(ValueError, match="cap"):
            multiplicity_by_quadrature(ONE, 34, 0)


class TestSectorDims:
    def test_spec_example(self):
        assert sector_dimensions(HALF, 4, 2, 0) == (6, 9, 3)

    def test_jz_exceeding_j_gives_zero(self):
        assert sector_dimensions(HALF, 4, 0, 2).fixed_j_jz == 0

    def test_fixed_j_from_triangle(self):
        assert sector_dimensions(HALF, 6, 6, 0).fixed_j == 7

    def test_spin_one_trinomial(self):
        # direct enumeration oracle
        for sites in (2, 3, 4, 5):
            for jz in range(-sites, sites + 1):
                count = 0
                for code in range(3**sites):
                    digits, c = [], code
                    for _ in range(sites):
                        digits.append(c % 3 - 1)
                        c //= 3
                    count += sum(digits) == jz
                got = sector_dimensions(ONE, sites, 2 * sites, 2 * jz).fixed_jz
                assert got == count

    def test_fixed_jz_sums_over_j(self):
        for species, sites in ((HALF, 8), (ONE, 5)):
            table = multiplicity_table(species, sites)
            total = sum(n for tj, n in table.items() if tj >= 0)
            assert sector_dimensions(species, sites, species.two_s * sites, 0).fixed_jz == total

    def test_integrality_error(self):
        with pytest.raises(ValueError):
            sector_dimensions(HALF, 4, 2, 1)


class TestHilbertFraction:
    def test_exact_value(self):
        assert hilbert_fraction(4, 4) == Fraction(1, 6)

    def test_normalization(self):
        for sites in (5, 10, 13):
            total = sum(hilbert_fraction(sites, tj) for tj in admissible_two_j(HALF, sites))
            assert total == 1


SPECIES_CALLS = {
    "multiplicity": lambda species: multiplicity(species, 4, 0),
    "multiplicity_table": lambda species: multiplicity_table(species, 4),
    "admissible_two_j": lambda species: admissible_two_j(species, 4),
    "multiplicity_rate": lambda species: multiplicity_rate(species, 0.5),
    "saddle_solve": lambda species: saddle_solve(species, 0.5),
    "log_multiplicity_saddle": lambda species: log_multiplicity_saddle(species, 4, 2),
    "ChainSpec": lambda species: ChainSpec(species, 8),
    "SectorLabel": lambda species: SectorLabel(species, 4, 0),
}


@pytest.mark.parametrize("species", ["half", None, 1], ids=["name", "none", "two_s"])
@pytest.mark.parametrize("name", SPECIES_CALLS)
def test_species_other_than_spin_species_are_refused(name, species):
    # each read species.two_s and raised a bare AttributeError
    message = f"species must be a SpinSpecies (HALF or ONE), got {species!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SPECIES_CALLS[name](species)


class TestLabels:
    def test_species_validation(self):
        with pytest.raises(ValueError):
            SpinSpecies(3)
        assert SpinSpecies.from_name("half") is HALF
        assert SpinSpecies.from_name("one") is ONE
        assert HALF.local_dim == 2 and ONE.local_dim == 3
        assert HALF.microscopic_spin == Fraction(1, 2)

    def test_sector_label_invariants(self):
        label = SectorLabel(HALF, 6, 2, 0)
        assert label.spin_density == pytest.approx(1 / 3)
        with pytest.raises(ValueError):
            SectorLabel(HALF, 6, 2, 4)  # |Jz| > J
        with pytest.raises(ValueError):
            SectorLabel(HALF, 6, 3, 0)  # wrong integrality class
        with pytest.raises(ValueError):
            SectorLabel(HALF, 6, 8, 0)  # J > L/2

    def test_multiplicity_dispatch(self):
        assert multiplicity(HALF, 6, 2) == 9
        assert multiplicity(ONE, 3, 2) == 3
