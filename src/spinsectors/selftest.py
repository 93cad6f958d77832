"""Built-in invariant suite behind the `selftest` CLI subcommand.

Each check prints one ok/FAIL line; the runner returns the failure count so
the CLI exits nonzero on any failure.  The checks are assert statements,
so the runner refuses to run under python -O, which strips them.
"""

import math
from fractions import Fraction

import numpy as np

from .asymptotics import multiplicity_rate, saddle_solve, log_multiplicity_saddle
from .combinatorics import (
    HALF,
    ONE,
    admissible_two_j,
    multiplicity,
    multiplicity_table,
    spin_half_multiplicity,
    spin_half_multiplicity_log,
    zero_magnetization_dim,
)
from .ensembles import (
    CoupledPairGeometry,
    ensemble_entropy_samples,
    entanglement_entropy,
    max_spin_state_entropy,
    page_average,
    sd2_average_closed,
    singlet_average_asymptotic,
    singlet_average_exact,
)
from .special import EULER_GAMMA, digamma
from .spectra import RESIDUAL_TOL, ChainSpec, _spin_subspaces, diagonalize_and_resolve
from .su2 import _stretched_pass, bond_matrix_elements, clebsch_gordan, configuration_space

_TRIANGLE = {
    0: {0: 1},
    1: {1: 1},
    2: {0: 1, 2: 1},
    3: {1: 2, 3: 1},
    4: {0: 2, 2: 3, 4: 1},
    5: {1: 5, 3: 4, 5: 1},
    6: {0: 5, 2: 9, 4: 5, 6: 1},
}


def _check_multiplicities():
    for sites in range(25):
        table = multiplicity_table(HALF, sites)
        assert table.total_dimension() == 2**sites
        for two_j in admissible_two_j(HALF, sites):
            assert spin_half_multiplicity(sites, two_j) == table.multiplicity(two_j)
        assert table.irrep_count() == zero_magnetization_dim(sites)
    for sites in range(13):
        assert multiplicity_table(ONE, sites).total_dimension() == 3**sites


def _check_triangle():
    for sites, row in _TRIANGLE.items():
        table = dict(multiplicity_table(HALF, sites).items())
        table = {tj: n for tj, n in table.items() if n}
        assert table == row, (sites, table, row)


def _check_rate_and_saddle():
    assert abs(multiplicity_rate(HALF, 0.0) - math.log(2)) < 1e-12
    assert abs(multiplicity_rate(ONE, 0.0) - math.log(3)) < 1e-12
    assert multiplicity_rate(HALF, 1.0) == 0.0
    assert multiplicity_rate(ONE, 1.0) == 0.0
    assert abs(multiplicity_rate(HALF, 0.5) - 0.5623351446188083) < 1e-12
    sd = saddle_solve(HALF, 0.6)
    assert abs(sd.saddle_point - 0.5) < 1e-12
    assert saddle_solve(ONE, 1.0).endpoint
    for species in (HALF, ONE):  # the rate falls to 0 as j -> 1, never below
        assert 0.0 < multiplicity_rate(species, 1.0 - 2.0**-53) < 1e-14
    ln_exact = spin_half_multiplicity_log(1000, 500)
    ln_saddle = log_multiplicity_saddle(HALF, 1000, 500)
    assert abs(ln_saddle - ln_exact) / ln_exact < 0.02


def _check_clebsch_gordan():
    assert abs(clebsch_gordan(1, 1, 1, -1, 0, 0) - 1 / math.sqrt(2)) < 1e-14
    assert clebsch_gordan(4, 4, 6, 6, 10, 10) == 1.0
    for two_ja in (1, 2, 3, 5):
        for two_m in range(-two_ja, two_ja + 1, 2):
            expect = (-1.0) ** ((two_ja - two_m) // 2) / math.sqrt(two_ja + 1)
            got = clebsch_gordan(two_ja, two_m, two_ja, -two_m, 0, 0)
            assert abs(got - expect) < 1e-13
    for two_j1, two_j2, two_m in ((3, 4, 1), (4, 4, 0), (2, 5, 3)):
        js = range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
        for two_ja_ in js:
            for two_jb_ in js:
                acc = 0.0
                for two_m1 in range(-two_j1, two_j1 + 1, 2):
                    two_m2 = two_m - two_m1
                    if abs(two_m2) > two_j2:
                        continue
                    acc += clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_ja_, two_m) * \
                        clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_jb_, two_m)
                expect = 1.0 if two_ja_ == two_jb_ else 0.0
                assert abs(acc - expect) < 1e-12
    geo = CoupledPairGeometry(200, 100, 100)  # unit columns up to 2J_A = 2J_B = 100
    for pair, column in geo.cg_columns.items():
        assert abs(column @ column - 1.0) < 1e-12, pair


def _check_stretched():
    # each column against C(2J_A, J_A-m) C(2J_B, J_B+m) / C(2J_A+2J_B, J_A+J_B)
    comb = math.comb
    pairs = [(two_ja, two_jb) for two_ja in range(13) for two_jb in range(two_ja % 2, 13, 2)]
    logs, starts = _stretched_pass(*np.array(pairs + [(6, 10), (500, 500)], dtype=np.int64).T)
    *small, column, wide = (np.exp(col) for col in np.split(logs, starts[1:]))
    for (two_ja, two_jb), weights in zip(pairs, small, strict=True):
        mm, n = min(two_ja, two_jb), two_ja + two_jb
        exact = [Fraction(comb(two_ja, (two_ja - m) // 2) * comb(two_jb, (two_jb + m) // 2),
                          comb(n, n // 2)) for m in range(-mm, mm + 1, 2)]
        assert np.allclose(weights, np.array(exact, float), rtol=1e-12, atol=0), (two_ja, two_jb)
    assert abs(column.sum() - 1.0) < 1e-12
    half_m = np.arange(-500, 501, 2) / 2.0
    var = np.sum(half_m**2 * wide)
    assert abs(var - 62.5) / 62.5 < 0.02


def _check_closed_forms():
    assert page_average(1, 1) == 0.0
    assert abs(page_average(2, 2) - 1.0 / 3.0) < 1e-12
    assert abs(page_average(2**10, 2**10) - (10 * math.log(2) - 0.5)) < 0.01
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-12
    assert abs(digamma(2.0) - digamma(1.0) - 1.0) < 1e-12
    assert abs(singlet_average_exact(4, 2) - (0.5 + math.log(3) / 2)) < 1e-12
    assert abs(singlet_average_exact(12, 5) - singlet_average_exact(12, 7)) < 1e-12
    # beyond float range (~1e598 states): an OverflowError or a NaN fails here
    assert abs(singlet_average_exact(2000, 1000) - singlet_average_asymptotic(2000, 0.5)) < 1e-3
    for sites in (8, 12):
        closed = sd2_average_closed(sites, sites, sites // 2)
        assert abs(closed - max_spin_state_entropy(sites, sites // 2)) < 1e-12


def _check_sampling():
    a = ensemble_entropy_samples(8, 2, 4, 16, 11, ("full", "sd1", "sd2"))
    b = ensemble_entropy_samples(8, 2, 4, 16, 11, ("full", "sd1", "sd2"))
    for key in a:
        assert np.array_equal(a[key], b[key])
    c = ensemble_entropy_samples(8, 2, 4, 16, 11, ("full", "sd1", "sd2"), workers=2)
    for key in a:
        assert np.array_equal(a[key], c[key])
    singlet = ensemble_entropy_samples(8, 0, 4, 16, 3, ("full", "sd1"))
    assert np.allclose(singlet["full"], singlet["sd1"], atol=1e-12)
    # with L_A > L_B, sd1 may exceed L_B ln 2; the sampler bounds it by L_A ln 2
    asym = ensemble_entropy_samples(8, 2, 5, 16, 11, ("full", "sd1", "sd2"))
    assert np.all(asym["sd1"] >= asym["full"] - 1e-10)


def _check_entropy_units():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    assert abs(entanglement_entropy(singlet, 1) - math.log(2)) < 1e-12
    product = np.zeros(16)
    product[0] = 1.0
    assert entanglement_entropy(product, 2) == 0.0


def _check_spectra():
    # each chain's H as (distance, coefficient, power) triples, written out here
    # and not read from spectra: -S_i.S_{i+1} - c S_i.S_{i+2} for spin-1/2 and
    # -S_i.S_{i+1} + c (S_i.S_{i+1})**2 for spin-1, whose c != 0 makes its second bond count
    for species, sites, c in ((HALF, 6, 3.0), (ONE, 4, 0.5)):
        two_s = species.two_s
        bonds = ((1, -1.0, 1), (2, -c, 1)) if species is HALF else ((1, -1.0, 1), (1, c, 2))
        records = diagonalize_and_resolve(ChainSpec(species, sites, c), None)
        counts = dict.fromkeys(admissible_two_j(species, sites), 0)
        for r in records:
            assert not r.flagged
            counts[r.two_j] += 2 if r.complex_sector else 1  # conjugate blocks count twice
        assert all(n == multiplicity(species, sites, tj) for tj, n in counts.items()), counts
        # the records, conjugate blocks counted twice, hold the spectrum of the dense slice H
        codes, digits = configuration_space(two_s, sites, 0)
        col, row, amp = bond_matrix_elements(two_s, digits, bonds, codes)
        dim = len(codes)
        expected = np.linalg.eigvalsh(np.bincount(row * dim + col, amp, minlength=dim**2).reshape(dim, dim))
        energies = np.sort([r.energy for r in records for _ in range(1 + r.complex_sector)])
        gap = np.abs(energies - expected).max()
        assert gap <= 1e-12 * max(1.0, np.abs(expected).max()), (sites, gap)
        coeffs = np.array([coeff for _, coeff, _ in bonds])
        for block, subspaces in _spin_subspaces(two_s, sites):
            # each J**2 subspace holds H
            for sub in subspaces:
                assert sub.leakage.max() <= RESIDUAL_TOL, (sites, block.momentum_index, sub.two_j)
            if not block.complex_sector:
                continue
            # every eigenvector psi of a complex block, at momentum k, obeys
            # psi(R c) = exp(-ik cut) conj psi(c) for each in-half reflection
            # R = T**cut P, i -> (cut-1-i) mod L, which makes its Schmidt blocks real
            vectors = block.to_momentum(
                np.hstack([sub.basis @ np.linalg.eigh(sub.terms @ coeffs)[1] for sub in subspaces]))
            amps = np.vstack([vectors, np.zeros((1, vectors.shape[1]))])[block.position] * block.phase[:, None]
            for cut in range(1, sites):
                image = np.empty_like(digits)
                image[:, [(cut - 1 - i) % sites for i in range(sites)]] = digits
                reflection = np.searchsorted(codes, image @ (two_s + 1) ** np.arange(sites))
                phase = np.exp(-2j * math.pi * block.momentum_index * cut / sites)
                gap = np.abs(amps[reflection] - phase * amps.conj()).max()
                assert gap <= 1e-13, (sites, block.momentum_index, cut, gap)


_CHECKS = (
    ("multiplicity identities", _check_multiplicities),
    ("fusion triangle rows", _check_triangle),
    ("rate function and saddle points", _check_rate_and_saddle),
    ("clebsch-gordan values and orthogonality", _check_clebsch_gordan),
    ("stretched-coupling weights", _check_stretched),
    ("closed-form averages", _check_closed_forms),
    ("seeded sampling determinism", _check_sampling),
    ("entropy kernels", _check_entropy_units),
    ("momentum-block diagonalization", _check_spectra),
)


def run_selftest():
    if not __debug__:
        raise RuntimeError("selftest: python -O strips the assert statements it checks with; "
                           "run it without -O")
    failures = 0
    for name, check in _CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return 1 if failures else 0
