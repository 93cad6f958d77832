import math

import numpy as np
import pytest

from spinsectors import (
    HALF,
    ONE,
    fraction_peak_density,
    hilbert_fraction,
    hilbert_fraction_asymptotic,
    log_multiplicity_saddle,
    multiplicity_rate,
    multiplicity_table,
    saddle_solve,
    spin_half_multiplicity_log,
)

from oracles import saddle_exponent, saddle_exponent_d1, saddle_exponent_d2

# 0 < j < 1 from deep underflow of 1 - z0**2 up to the last double below 1,
# where u = z0**2 is ~1e-16
FULL_RANGE = (
    [1e-300, 1e-20, 1e-8, 1e-4, 0.01, 0.05]
    + [k / 10 for k in range(1, 10)]
    + [0.95, 0.99]
    + [1.0 - 10.0**-k for k in range(4, 16)]
    + [1.0 - 2.0**-53]
)


def oracle_prefactor(species, z0, j):
    """(1 - z0**2)/z0 * sqrt(2/(pi psi''(z0))) with psi'' through the character polynomial."""
    return (1.0 - z0 * z0) / z0 * math.sqrt(2.0 / (math.pi * saddle_exponent_d2(species, z0, j)))


class TestRate:
    def test_endpoints(self):
        assert multiplicity_rate(HALF, 0.0) == pytest.approx(math.log(2), abs=1e-12)
        assert multiplicity_rate(ONE, 0.0) == pytest.approx(math.log(3), abs=1e-12)
        assert multiplicity_rate(HALF, 1.0) == 0.0
        assert multiplicity_rate(ONE, 1.0) == 0.0

    def test_midpoint_value(self):
        assert multiplicity_rate(HALF, 0.5) == pytest.approx(0.562335, abs=1e-6)

    def test_near_endpoint_limits_are_continuous(self):
        eps = 1e-7
        assert multiplicity_rate(ONE, 1.0 - eps) == pytest.approx(0.0, abs=1e-5)
        assert multiplicity_rate(ONE, eps) == pytest.approx(math.log(3), abs=1e-5)

    def test_concavity_spin_half(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [multiplicity_rate(HALF, j) for j in grid]
        second = np.diff(values, 2)
        assert np.all(second < 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            multiplicity_rate(HALF, -0.1)
        with pytest.raises(ValueError):
            multiplicity_rate(HALF, 1.1)


class TestSaddle:
    def test_closed_form_location(self):
        assert saddle_solve(HALF, 0.6).saddle_point == pytest.approx(0.5, abs=1e-13)

    def test_endpoint_flag(self):
        sd = saddle_solve(ONE, 1.0)
        assert sd.endpoint and sd.saddle_point == 0.0 and sd.rate == 0.0

    def test_rate_consistency(self):
        for species in (HALF, ONE):
            for j in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95):
                sd = saddle_solve(species, j)
                z0 = sd.saddle_point
                assert sd.rate == pytest.approx(saddle_exponent(species, z0, j), abs=1e-12)
                # the closed-form saddle really is a stationary point
                assert abs(saddle_exponent_d1(species, z0, j)) < 1e-10
                assert saddle_exponent_d2(species, z0, j) > 0.0
                assert sd.prefactor == pytest.approx(oracle_prefactor(species, z0, j), rel=1e-12)

    def test_near_endpoint_solutions(self):
        for species in (HALF, ONE):
            for j in (0.001, 0.01, 0.99, 0.999):
                sd = saddle_solve(species, j)
                assert sd.rate == pytest.approx(saddle_exponent(species, sd.saddle_point, j), abs=1e-11)
                assert abs(saddle_exponent_d1(species, sd.saddle_point, j)) < 1e-10
                assert saddle_exponent_d2(species, sd.saddle_point, j) > 0.0

    @pytest.mark.parametrize("species", [HALF, ONE], ids=["half", "one"])
    def test_full_range_accuracy(self, species):
        # psi and psi'' through the character polynomial at the saddle found
        # by Newton at 400 digits, which leaves 50 and more past the 1e-300
        # scale of 1 - z0**2; the character route in floats gave a negative
        # spin-1 rate and a 12% off saddle near j = 1, and a prefactor that
        # underflowed to 0 near j = 0
        mp = pytest.importorskip("mpmath")
        with mp.workdps(400):
            for j in FULL_RANGE:
                sd = saddle_solve(species, j)
                x = mp.mpf(j)
                z0 = mp.findroot(lambda z: saddle_exponent_d1(species, z, x), mp.mpf(sd.saddle_point),
                                 solver="newton", df=lambda z: saddle_exponent_d2(species, z, x))
                curv = saddle_exponent_d2(species, z0, x)
                want = {
                    "rate": saddle_exponent(species, z0, x, log=mp.log),
                    "saddle_point": z0,
                    "prefactor": (1 - z0 * z0) / z0 * mp.sqrt(2 / (mp.pi * curv)),
                }
                got = {"rate": multiplicity_rate(species, j), "saddle_point": sd.saddle_point,
                       "prefactor": sd.prefactor}
                for name, value in want.items():
                    error = float(abs(got[name] / value - 1))
                    assert error <= 1e-15, (j, name, got[name], float(value))

    def test_domain(self):
        with pytest.raises(ValueError):
            saddle_solve(HALF, 0.0)


class TestLogMultiplicity:
    def test_relative_error_small_and_shrinking(self):
        errors = []
        for sites in (100, 300, 1000):
            exact = spin_half_multiplicity_log(sites, sites // 2)
            approx = log_multiplicity_saddle(HALF, sites, sites // 2)
            errors.append(abs(approx - exact) / exact)
        assert errors[-1] < 0.02
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("species,sizes,two_j_per_site,settled", [
        (HALF, (1600, 6400), 0.1, -7.9), (HALF, (1600, 6400), 0.5, -0.305), (HALF, (1600, 6400), 0.9, 1.613),
        (ONE, (200, 400), 0.2, -3.73), (ONE, (200, 400), 1.0, 0.036), (ONE, (200, 400), 1.8, 0.96),
    ])
    def test_prefactor_error_settles_as_one_over_sites(self, species, sizes, two_j_per_site, settled):
        # with the prefactor right, ln n_saddle - ln n_exact is c/L + O(1/L**2),
        # so L times it settles; a prefactor off by a factor 1.0001 adds
        # L * 1e-4 to it, 0.48 more at L = 6400 than at L = 1600
        products = []
        for sites in sizes:
            two_j = round(two_j_per_site * sites)
            if species is HALF:
                exact = spin_half_multiplicity_log(sites, two_j)
            else:
                exact = math.log(multiplicity_table(ONE, sites).multiplicity(two_j))
            products.append(sites * (log_multiplicity_saddle(species, sites, two_j) - exact))
        assert abs(products[1] - products[0]) < 0.05
        assert products[1] == pytest.approx(settled, abs=0.05)

    def test_spin_one_roundtrip(self):
        exact = math.log(multiplicity_table(ONE, 60).multiplicity(60))
        approx = log_multiplicity_saddle(ONE, 60, 60)
        assert abs(approx - exact) / exact < 0.05

    def test_endpoints_rejected(self):
        with pytest.raises(ValueError):
            log_multiplicity_saddle(HALF, 100, 0)
        with pytest.raises(ValueError):
            log_multiplicity_saddle(HALF, 100, 100)
        with pytest.raises(ValueError, match="sites >= 1"):
            log_multiplicity_saddle(HALF, 0, 0)
        with pytest.raises(ValueError, match="sites >= 1"):
            hilbert_fraction_asymptotic(0, 0)

    @pytest.mark.parametrize("sites,two_j", [(1, 1), (10, 10), (11, 11), (10**6, 10**6), (2**60, 2**60 - 2)])
    def test_fraction_refused_at_the_end_of_its_range(self, sites, two_j):
        # x = 2J/L = 1 returned a silent NaN; past 2**53 sites x rounds to 1 below 2J = L
        message = f"needs 2J/L < 1 in floats, got 2J={two_j}, L={sites}; use hilbert_fraction"
        with pytest.raises(ValueError, match=f"^the asymptotic fraction {message}$"):
            hilbert_fraction_asymptotic(sites, two_j)
        if 1 < sites < 2**53:
            assert math.isfinite(hilbert_fraction_asymptotic(sites, sites - 2))


class TestHilbertFractionAsymptotics:
    def test_matches_exact_at_moderate_size(self):
        sites = 150
        for two_j in (6, 12, 24, 40):
            exact = float(hilbert_fraction(sites, two_j))
            approx = hilbert_fraction_asymptotic(sites, two_j)
            assert approx == pytest.approx(exact, rel=0.05)

    def test_rescaled_peak_model(self):
        # (n/D) sqrt(L) vs (4J/sqrt(L)) exp(-2J^2/L) near the peak
        sites = 150
        for two_j in (10, 12, 14):
            j_val = two_j / 2
            scaled = float(hilbert_fraction(sites, two_j)) * math.sqrt(sites)
            model = 4 * j_val / math.sqrt(sites) * math.exp(-2 * j_val**2 / sites)
            assert scaled == pytest.approx(model, rel=0.05)

    def test_peak_density_location(self):
        sites = 1000
        peak = fraction_peak_density(sites)
        best_two_j = max(
            range(0, 200, 2), key=lambda tj: hilbert_fraction(sites, tj)
        )
        assert abs(best_two_j / sites - peak) < 2.0 / sites
