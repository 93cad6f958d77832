"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import spinsectors as ss
from oracles import (
    QUADRATURE_MAX_SITES,
    apply_total_spin_squared,
    kron_hamiltonian,
    momentum_blocks,
    multiplicity_by_quadrature,
    restrict_to_zero_magnetization,
    sector_basis,
)
from spinsectors.ensembles import coupled_geometry


def report(num, ok, detail):
    print(f"ACCEPT-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


TRIANGLE = {
    0: {0: 1},
    1: {1: 1},
    2: {0: 1, 2: 1},
    3: {1: 2, 3: 1},
    4: {0: 2, 2: 3, 4: 1},
    5: {1: 5, 3: 4, 5: 1},
    6: {0: 5, 2: 9, 4: 5, 6: 1},
}


@pytest.fixture(scope="module")
def ed14():
    """L=14 diagonalizations at the integrable and chaotic points."""
    out = {}
    for coupling in (0.0, 3.0):
        spec = ss.ChainSpec(ss.HALF, 14, coupling)
        out[coupling] = ss.diagonalize_and_resolve(spec)
    return out


def test_criterion_01_multiplicity_exactness():
    t0 = time.perf_counter()
    for sites in range(25):
        table = ss.multiplicity_table(ss.HALF, sites)
        assert table.total_dimension() == 2**sites
        for two_j in ss.admissible_two_j(ss.HALF, sites):
            assert ss.spin_half_multiplicity(sites, two_j) == table.multiplicity(two_j)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 1.0, f"closed form == recursion for L<=24, dim identity exact "
                             f"({elapsed:.2f}s)")


def test_criterion_02_quadrature_correctness():
    t0 = time.perf_counter()
    checked = 0
    for species, max_sites in ((ss.HALF, 30), (ss.ONE, 20)):
        assert max_sites <= QUADRATURE_MAX_SITES[species.two_s]
        for sites in range(1, max_sites + 1):
            table = ss.multiplicity_table(species, sites)
            for two_j in ss.admissible_two_j(species, sites):
                assert multiplicity_by_quadrature(species, sites, two_j) == \
                    table.multiplicity(two_j)
                checked += 1
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 10.0, f"{checked} character-integral multiplicities round exactly "
                              f"({elapsed:.2f}s)")


def test_criterion_03_triangle_table():
    for sites, row in TRIANGLE.items():
        got = {tj: n for tj, n in ss.multiplicity_table(ss.HALF, sites).items() if n}
        assert got == row, (sites, got)
    report(3, True, "multiplicity table matches the printed triangle rows L<=6")


def test_criterion_04_asymptotic_rate():
    errors = []
    for sites in (100, 300, 1000):
        exact = ss.spin_half_multiplicity_log(sites, sites // 2)
        approx = ss.log_multiplicity_saddle(ss.HALF, sites, sites // 2)
        errors.append(abs(approx - exact) / exact)
    ok = errors[2] < 0.02 and errors[0] > errors[1] > errors[2]
    report(4, ok, f"ln n relative errors at j=0.5: {[f'{e:.2e}' for e in errors]} "
                  f"(<2% at L=1000, decreasing)")


def test_criterion_05_fraction_collapse():
    sites = 1000
    fractions = {tj: float(ss.hilbert_fraction(sites, tj)) for tj in range(0, 200, 2)}
    two_j_peak = max(fractions, key=fractions.get)
    j_peak = two_j_peak / 2
    location_ok = abs(j_peak - math.sqrt(sites) / 2) <= 1.0
    scaled = fractions[two_j_peak] * math.sqrt(sites)
    model = 4 * j_peak / math.sqrt(sites) * math.exp(-2 * j_peak**2 / sites)
    value_ok = abs(scaled - model) / model < 0.05
    report(5, location_ok and value_ok,
           f"peak at J={j_peak} (sqrt(L)/2={math.sqrt(sites)/2:.2f}), rescaled peak "
           f"{scaled:.4f} vs model {model:.4f}")


def test_criterion_06_sector_basis_certification():
    t0 = time.perf_counter()
    sectors = 0
    for sites in (2, 4, 6, 8, 10):
        for two_j in ss.admissible_two_j(ss.HALF, sites):
            basis = sector_basis(ss.HALF, sites, two_j, 0)
            n = ss.spin_half_multiplicity(sites, two_j)
            assert len(basis) == n
            if not n:
                continue
            gram = basis.vectors @ basis.vectors.T
            assert np.max(np.abs(gram - np.eye(n))) < 1e-12
            eigval = (two_j / 2) * (two_j / 2 + 1)
            for v in basis.vectors:
                residual = apply_total_spin_squared(v, ss.HALF, basis.configs) - eigval * v
                assert np.max(np.abs(residual)) < 1e-10
            sectors += 1
    elapsed = time.perf_counter() - t0
    report(6, elapsed < 30.0, f"{sectors} sector bases certified (orthonormal, sharp J**2, "
                              f"count=n_J) in {elapsed:.1f}s")


def test_criterion_07_singlet_monte_carlo():
    t0 = time.perf_counter()
    details = []
    ok = True
    for sites in (8, 10, 12):
        exact = ss.singlet_average_exact(sites, sites // 2)
        est = ss.random_state_average(
            sites, 0, sites // 2, samples=1000, seed=2024, complex_coefficients=True
        )
        dev = abs(est.mean - exact)
        ok = ok and dev < 3 * est.sem
        details.append(f"L={sites}: |dev|={dev:.4f} 3sem={3 * est.sem:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(7, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_08_singlet_asymptotics_quarter_cut():
    def deviation(sites):
        exact = ss.singlet_average_exact(sites, sites // 4)
        return exact - ss.singlet_average_asymptotic(sites, Fraction(1, 4))

    t0 = time.perf_counter()
    small = {sites: deviation(sites) for sites in (12, 16, 20, 24, 28)}
    doubling = [deviation(sites) for sites in (28, 56, 112, 224, 448, 896)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    # The error of the leading terms is O(1/L): L*d(L) tends to ~0.229.
    within_bound = all(0 < sites * d < 0.25 for sites, d in small.items())
    # d changes sign between L=8 and L=12, so |d| only falls monotonically
    # well past that; from L=28 on each doubling of L halves it.
    ratios = [b / a for a, b in zip(doubling, doubling[1:])]
    halving = (all(abs(a) > abs(b) for a, b in zip(doubling, doubling[1:]))
               and all(0.45 < r < 0.55 for r in ratios))
    report(8, within_bound and halving,
           f"d = exact - asymptotic at f=1/4, L=12..28: "
           f"{[f'{d:.5f}' for d in small.values()]}, "
           f"L*d: {[f'{sites * d:.4f}' for sites, d in small.items()]} (bound 0.25); "
           f"d(2L)/d(L) over L=28..896: {[f'{r:.4f}' for r in ratios]} "
           f"(d changes sign near L=10, so |d| is required to fall only from L=28)")


def test_criterion_09_stretched_state():
    t0 = time.perf_counter()
    exact = ss.max_spin_state_entropy(1000, 500)
    asy = ss.max_spin_entropy_asymptotic(1000, Fraction(1, 2))
    elapsed = time.perf_counter() - t0
    ok = abs(exact - asy) < 0.01 and elapsed < 1.0
    report(9, ok, f"J=L/2 state at L=1000: exact {exact:.5f} vs leading terms {asy:.5f} "
                  f"(|dev|={abs(exact - asy):.5f})")


def test_criterion_10_sd2_internal_oracle():
    closed = ss.sd2_average_closed(16, 8, 8)
    values = ss.ensemble_entropy_samples(
        16, 8, 8, 1000, 5, ("sd2",), complex_coefficients=True
    )["sd2"]
    sem = values.std(ddof=1) / math.sqrt(len(values))
    dev = abs(values.mean() - closed)
    report(10, dev < 3 * sem,
           f"sd2 closed form {closed:.5f} vs Monte Carlo {values.mean():.5f} "
           f"(|dev|={dev:.5f}, 3sem={3 * sem:.5f})")


def test_criterion_11_sd1_convergence():
    gaps = []
    for sites in (12, 16, 20):
        samples = ss.ensemble_entropy_samples(sites, 2, sites // 4, 1000, 99, ("full", "sd1"))
        gaps.append(abs((samples["sd1"] - samples["full"]).mean()) / samples["full"].mean())
    ok = gaps[0] > gaps[1] > gaps[2]
    report(11, ok, f"|sd1 - full|/full at J=1, f=1/4: {[f'{g:.2e}' for g in gaps]}")


def test_criterion_12_ordering_at_half_cut():
    samples = ss.ensemble_entropy_samples(16, 8, 8, 1000, 123, ("full", "sd1", "sd2"))
    d_upper = samples["sd1"] - samples["full"]
    d_lower = samples["full"] - samples["sd2"]
    sem_u = d_upper.std(ddof=1) / math.sqrt(len(d_upper))
    sem_l = d_lower.std(ddof=1) / math.sqrt(len(d_lower))
    ok = d_upper.mean() > 3 * sem_u and d_lower.mean() > 3 * sem_l
    report(12, ok, f"sd1-full = {d_upper.mean():.4f} (3sem {3 * sem_u:.4f}), "
                   f"full-sd2 = {d_lower.mean():.4f} (3sem {3 * sem_l:.4f})")


def test_criterion_13_ed_spectrum_oracle():
    sites = 8
    details = []
    ok = True
    for coupling in (0.0, 3.0):
        full = restrict_to_zero_magnetization(kron_hamiltonian(1, sites, coupling), 1, sites)
        reference = np.sort(np.linalg.eigvalsh(full))
        spec = ss.ChainSpec(ss.HALF, sites, coupling)
        union = np.sort(np.concatenate(
            [np.linalg.eigvalsh(b.matrix) for b in momentum_blocks(spec)]
        ))
        spectrum_dev = float(np.max(np.abs(union - reference)))
        records = ss.diagonalize_and_resolve(spec, fraction=None)
        worst_residual = max(r.j2_residual for r in records)
        ok = ok and spectrum_dev < 1e-10 and worst_residual < 1e-8
        details.append(f"coupling={coupling}: spectrum dev {spectrum_dev:.1e}, "
                       f"max J**2 residual {worst_residual:.1e}")
    report(13, ok, "; ".join(details))


def test_criterion_14_chaotic_vs_integrable(ed14):
    t0 = time.perf_counter()
    exact = ss.singlet_average_exact(14, 7)
    means = {}
    for coupling, records in ed14.items():
        means[coupling] = ss.eigenstate_entropy_average(records, 0).mean
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    ok = means[3.0] > means[0.0] and abs(means[3.0] - exact) < abs(means[0.0] - exact)
    report(14, ok, f"S(coupling=3)={means[3.0]:.4f} > S(coupling=0)={means[0.0]:.4f}; "
                   f"exact J=0 value {exact:.4f} is closer to the chaotic point")


def test_criterion_15_spin_one_split():
    means = {}
    for coupling in (0.0, 1.0):
        spec = ss.ChainSpec(ss.ONE, 8, coupling)
        records = ss.diagonalize_and_resolve(spec)
        means[coupling] = ss.eigenstate_entropy_average(records, 0).mean
    ok = means[0.0] > means[1.0]
    report(15, ok, f"spin-1 L=8: S(chaotic, coupling=0)={means[0.0]:.4f} > "
                   f"S(integrable, coupling=1)={means[1.0]:.4f}")


def test_criterion_16_gaussianity(ed14):
    gammas = {c: ss.gaussianity_average(records, 0) for c, records in ed14.items()}
    ed_ok = abs(gammas[3.0] - math.pi / 2) < abs(gammas[0.0] - math.pi / 2)
    rng = np.random.default_rng(8)
    synthetic = float(np.mean(
        [ss.gaussianity_of_vector(rng.standard_normal(10**4)) for _ in range(60)]
    ))
    synth_ok = abs(synthetic - math.pi / 2) / (math.pi / 2) < 0.02
    report(16, ed_ok and synth_ok,
           f"Gamma(3)={gammas[3.0]:.4f}, Gamma(0)={gammas[0.0]:.4f} (pi/2={math.pi/2:.4f}); "
           f"synthetic Gaussian vectors give {synthetic:.4f}")


def test_criterion_17_real_vs_complex():
    rel = []
    for sites in (8, 12, 16):
        real = ss.ensemble_entropy_samples(
            sites, sites // 2, sites // 2, 1000, 7, ("full",)
        )["full"]
        cplx = ss.ensemble_entropy_samples(
            sites, sites // 2, sites // 2, 1000, 7, ("full",), complex_coefficients=True
        )["full"]
        rel.append(abs(real.mean() - cplx.mean()) / cplx.mean())
    ok = rel[0] > rel[1] > rel[2]
    report(17, ok, f"real-vs-complex relative gap at J=L/4, f=1/2: "
                   f"{[f'{r:.2e}' for r in rel]}")


def test_criterion_18_csv_determinism(tmp_path, monkeypatch):
    from spinsectors.cli import main

    def body(path):
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        drop = header.index("wall_time_ms")
        return [tuple(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines]

    args = ["average", "--method", "full", "--L", "10,12", "--two-J", "0,2",
            "--f", "1/2", "--samples", "64", "--seed", "31415"]
    out1 = tmp_path / "run1.csv"
    monkeypatch.setenv("SPINSECTORS_WORKERS", "1")
    main(args + ["--out", str(out1)])
    out2 = tmp_path / "run2.csv"
    monkeypatch.setenv("SPINSECTORS_WORKERS", "3")
    main(args + ["--out", str(out2)])
    ok = body(out1) == body(out2)
    report(18, ok, "stochastic command re-run with workers 1 vs 3 gives byte-identical "
                   "CSV bodies (wall_time_ms excluded)")


def test_criterion_19_sd2_asymptotics():
    # d = closed - asymptotic falls as O(1/L) at f = 1/4 and, through the
    # sqrt(L) term of f = 1/2, as O(L^-1/2) there: ratios near 1/2 and 1/sqrt(2)
    def ratios(fraction, j, sizes):
        d = [ss.sd2_average_closed(sites, round(j * sites), round(fraction * sites))
             - ss.sd2_asymptotic(sites, fraction, j) for sites in sizes]
        return [b / a for a, b in zip(d, d[1:])]

    t0 = time.perf_counter()
    quarter = ratios(Fraction(1, 4), 0.25, (512, 1024, 2048, 4096))
    half = {j: ratios(Fraction(1, 2), j, (1024, 2048, 4096, 8192)) for j in (0.5, 0.75)}
    elapsed = time.perf_counter() - t0
    ok = (all(0.45 < r < 0.55 for r in quarter)
          and all(0.65 < r < 0.78 for rs in half.values() for r in rs))
    report(19, ok,
           f"d = sd2 closed - asymptotic, d(2L)/d(L) at f=1/4, j=1/4, L=512..2048: "
           f"{[f'{r:.3f}' for r in quarter]} (0.45, 0.55); at f=1/2, L=1024..4096: "
           + ", ".join(f"j={j}: {[f'{r:.3f}' for r in rs]}" for j, rs in half.items())
           + f" (0.65, 0.78); {elapsed:.2f} s")


def test_criterion_20_chaotic_vs_integrable_at_spin(ed14):
    # gap = MC full mean - central complex-sector ED mean, at f = 1/2; the
    # MC draws complex coefficients because the k != 0, pi eigenstates are
    # complex in the configuration basis
    t0 = time.perf_counter()
    records = {12: {c: ss.diagonalize_and_resolve(ss.ChainSpec(ss.HALF, 12, c)) for c in (0.0, 3.0)},
               14: ed14}
    ok, details = True, []
    for sites, two_js in ((12, (2, 6)), (14, (2, 8))):
        for two_j in two_js:
            mc = ss.random_state_average(sites, two_j, sites // 2, 400, 2020,
                                         complex_coefficients=True, workers=1).mean
            gap = {c: mc - ss.eigenstate_entropy_average(r, two_j).mean for c, r in records[sites].items()}
            ok = ok and gap[3.0] < 0.5 * gap[0.0]
            details.append(f"L={sites} 2J={two_j}: gap(3)={gap[3.0]:.3f}, gap(0)={gap[0.0]:.3f}, "
                           f"share {gap[3.0] / gap[0.0]:.3f}")
    elapsed = time.perf_counter() - t0
    report(20, ok, "; ".join(details) + f" (< 0.5; {elapsed:.1f}s)")
