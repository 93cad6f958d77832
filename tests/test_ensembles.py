import concurrent.futures
import gc
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import coupled_sector_basis, draw_blocks, sector_basis
from spinsectors import (
    HALF,
    ONE,
    ChainSpec,
    SectorLabel,
    clebsch_gordan,
    EntropyEstimate,
    default_sample_count,
    ensemble_entropy_samples,
    diagonalize_and_resolve,
    entanglement_entropy,
    fixed_filling_average,
    fraction_peak_density,
    haar_average_leading,
    max_spin_entropy_asymptotic,
    max_spin_state_entropy,
    multiplicity_rate,
    page_average,
    paired_spin_crossover,
    random_state_average,
    saddle_solve,
    sd2_asymptotic,
    sd2_average_closed,
    singlet_average_asymptotic,
    singlet_average_exact,
    slice_entanglement_entropy,
    spin_half_multiplicity,
)
import spinsectors
from spinsectors import combinatorics, ensembles, su2
from spinsectors.ensembles import (
    WORKERS_ENV,
    CoupledPairGeometry,
    _entropies_from_blocks,
    bipartition_maps,
    coupled_geometry,
    schmidt_square_entropy,
)
from spinsectors.special import digamma


def brute_force_geometry(sites, two_j, cut):
    """The O(L^2) reference geometry: every (J_A, J_B) pairing on the triangle,
    with the guard sum n_A n_B formed pair by pair."""
    pairs = [
        (ja, jb)
        for ja in range(cut % 2, cut + 1, 2)
        for jb in range((sites - cut) % 2, sites - cut + 1, 2)
        if abs(ja - jb) <= two_j <= ja + jb
    ]
    na = {ja: spin_half_multiplicity(cut, ja) for ja in sorted({ja for ja, _ in pairs})}
    nb = {jb: spin_half_multiplicity(sites - cut, jb) for jb in sorted({jb for _, jb in pairs})}
    total = sum(na[ja] * nb[jb] for ja, jb in pairs)
    return pairs, na, nb, total


def unsplit_entropies(geo, w):
    """Full and sd1 entropies of W from every m block of rho_A, m < 0 and m = 0
    unsplit included, each CG weight read through `cg_coefficient`: the slow
    reference for the sampler's flip-symmetric blocks."""
    lam_full, lam_sd1 = [], []
    for two_m in range(-geo.m_max, geo.m_max + 1, 2):
        slabs = [
            np.hstack([
                geo.cg_coefficient(ja, jb, two_m) * w[geo.rows[ja], geo.cols[jb]]
                for jb in geo.jb_list if jb >= abs(two_m)
            ])
            for ja in geo.ja_list if ja >= abs(two_m)
        ]
        lam_full.append(np.linalg.svd(np.vstack(slabs), compute_uv=False) ** 2)
        lam_sd1 += [np.linalg.svd(slab, compute_uv=False) ** 2 for slab in slabs]
    return {
        "full": schmidt_square_entropy(np.concatenate(lam_full)),
        "sd1": schmidt_square_entropy(np.concatenate(lam_sd1)),
    }


def collections_during(call):
    """(phase, generation) of each garbage collection that call() sets off with
    the young-generation threshold at 100."""
    collections = []

    def record(phase, info):
        collections.append((phase, info["generation"]))

    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(100)
    gc.callbacks.append(record)
    try:
        call()
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
    return collections


def draw_w(entropy, geo, complex_coefficients):
    """One W of the geometry drawn by the reference, from the seed sequence `entropy`."""
    w = np.zeros(geo.shape, dtype=complex if complex_coefficients else float)
    draw_blocks(np.random.default_rng(np.random.SeedSequence(entropy=entropy)), geo, w)
    return w


NON_INTEGER_CASES = [
    (singlet_average_exact, (12, 6.0), "cut", 6.0),
    (singlet_average_exact, (12.0, 6), "sites", 12.0),
    (sd2_average_closed, (12, 2, 6.0), "cut", 6.0),
    (sd2_average_closed, (12, 2.0, 6), "two_j", 2.0),
    (max_spin_state_entropy, (12, 6.0), "cut", 6.0),
    (max_spin_state_entropy, (12.0, 6), "sites", 12.0),
    (haar_average_leading, (12, 6.5), "cut", 6.5),
    (haar_average_leading, (12.0, 6), "sites", 12.0),
    (fixed_filling_average, (0.5, 12, 6.5), "cut", 6.5),
    (ensemble_entropy_samples, (8, 2, 4, 4, 1, ("full",), False, 1.5), "workers", 1.5),
    (singlet_average_asymptotic, (12.0, 0.5), "sites", 12.0),
    (max_spin_entropy_asymptotic, (12.5, 0.5), "sites", 12.5),
    (sd2_asymptotic, (12.0, 0.5, 0.5), "sites", 12.0),
    (default_sample_count, ("full", 12.5), "sites", 12.5),
]


@pytest.mark.parametrize("function,args,name,value", NON_INTEGER_CASES,
                         ids=[f"{case[0].__name__}-{case[2]}" for case in NON_INTEGER_CASES])
def test_non_integer_sizes_name_the_argument(function, args, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
        function(*args)


BELOW_MINIMUM_CASES = [
    (singlet_average_asymptotic, (-4, 0.5), "sites", 1, -4),
    (max_spin_entropy_asymptotic, (0, 0.5), "sites", 1, 0),
    (sd2_asymptotic, (0, 0.5, 0.5), "sites", 1, 0),
    (haar_average_leading, (10, 5, 1), "local_dim", 2, 1),
    (default_sample_count, ("full", -5), "sites", 1, -5),
]


@pytest.mark.parametrize("function,args,name,minimum,value", BELOW_MINIMUM_CASES,
                         ids=[f"{case[0].__name__}-{case[2]}" for case in BELOW_MINIMUM_CASES])
def test_sizes_below_their_minimum_name_the_argument(function, args, name, minimum, value):
    # these returned a negative entropy or raised a bare math domain error
    with pytest.raises(ValueError, match=rf"^{name} must be >= {minimum}, got {value}$"):
        function(*args)


SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: random_state_average(8, 2, 4, samples=True, seed=4),
                 "samples must be an integer, got True", id="samples-bool"),
    pytest.param(lambda: random_state_average(8, 2, 4, samples=4, seed=True),
                 "seed must be an integer, got True", id="seed-bool"),
    pytest.param(lambda: entanglement_entropy(SINGLET, True), "cut must be an integer, got True", id="cut-bool"),
    pytest.param(lambda: singlet_average_exact(12, True), "cut must be an integer, got True", id="exact-cut-bool"),
    pytest.param(lambda: bipartition_maps(np.zeros((3, 2), dtype=int), [True]),
                 "a_sites [True] must hold integer sites 0 <= i < 2, got True", id="a_sites-bool"),
    pytest.param(lambda: page_average(True, 3), "dim_a must be an integer >= 1, got True", id="page-bool"),
    pytest.param(lambda: page_average("3", 3), "dim_a must be an integer >= 1, got '3'", id="page-string"),
    pytest.param(lambda: su2.clebsch_gordan(1.0, 1, 1, -1, 0, 0), "j1: two_j=1.0 and two_m=1 must be integers",
                 id="cg-float-j"),
    pytest.param(lambda: su2.clebsch_gordan(1, 1, 1, -1, 0, 0.0), "J: two_j=0 and two_m=0.0 must be integers",
                 id="cg-float-m"),
    pytest.param(lambda: su2.clebsch_gordan("1", 1, 1, -1, 0, 0), "j1: two_j='1' and two_m=1 must be integers",
                 id="cg-string"),
    pytest.param(lambda: CoupledPairGeometry(8, True, 4), "two_j must be an integer, got True",
                 id="geometry-two_j-bool"),
    pytest.param(lambda: SectorLabel(HALF, 6, 2, "3"), "two_jz must be an integer, got '3'",
                 id="label-two_jz-string"),
    pytest.param(lambda: spinsectors.configuration_space(1, 1.5), "sites must be an integer, got 1.5",
                 id="configuration-space-float"),
    pytest.param(lambda: spinsectors.spin_squared_terms(1, 2.0), "sites must be an integer, got 2.0",
                 id="spin-squared-terms-float"),
    pytest.param(lambda: spinsectors.resolve_workers(None, 10), "n_items must be an integer, got None",
                 id="resolve-workers-none"),
    pytest.param(lambda: digamma(None), "digamma requires a real number, got None", id="digamma-none"),
])
def test_bools_and_non_integers_are_refused(call, message):
    # bools passed the integer checks as 0 and 1; floats and strings reached
    # numpy indexing or arithmetic and raised IndexError or TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: ChainSpec(HALF, 12, "3"), "coupling must be a finite real number, got '3'",
                 id="coupling-string"),
    pytest.param(lambda: ChainSpec(HALF, 12, None), "coupling must be a finite real number, got None",
                 id="coupling-none"),
    pytest.param(lambda: ChainSpec(HALF, 12, 1j), "coupling must be a finite real number, got 1j",
                 id="coupling-complex"),
    pytest.param(lambda: ChainSpec(HALF, 6, True), "coupling must be a finite real number, got True",
                 id="coupling-bool"),
    pytest.param(lambda: ChainSpec(HALF, 6, np.True_),
                 "coupling must be a finite real number, got np.True_", id="coupling-numpy-bool"),
    pytest.param(lambda: diagonalize_and_resolve(ChainSpec(HALF, 8), math.inf),
                 "fraction must be a finite real number, got inf", id="ed-fraction-inf"),
    pytest.param(lambda: singlet_average_asymptotic(12, math.inf),
                 "fraction must be a finite real number, got inf", id="singlet-fraction-inf"),
    pytest.param(lambda: singlet_average_asymptotic(12, None),
                 "fraction must be a finite real number, got None", id="singlet-fraction-none"),
    pytest.param(lambda: sd2_asymptotic(12, -math.inf, 0.5),
                 "fraction must be a finite real number, got -inf", id="sd2-fraction-inf"),
    pytest.param(lambda: paired_spin_crossover(math.inf, 0.5),
                 "fraction must be a finite real number, got inf", id="crossover-fraction-inf"),
    pytest.param(lambda: fixed_filling_average(math.inf, 12, 6),
                 "filling must be a finite real number, got inf", id="filling-inf"),
    pytest.param(lambda: fraction_peak_density(math.nan), "sites must be an integer, got nan", id="peak-nan"),
    pytest.param(lambda: fraction_peak_density(2.5), "sites must be an integer, got 2.5", id="peak-float"),
])
def test_non_finite_and_non_real_inputs_are_refused(call, message):
    # these raised TypeError or OverflowError, or returned a value (NaN for NaN)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call,value", [
    pytest.param(lambda: sd2_asymptotic(12, 0.5, "0.5"), "'0.5'", id="sd2-string"),
    pytest.param(lambda: sd2_asymptotic(12, 0.5, 1j), "1j", id="sd2-complex"),
    pytest.param(lambda: sd2_asymptotic(12, 0.5, True), "True", id="sd2-bool"),
    pytest.param(lambda: paired_spin_crossover(0.25, None), "None", id="crossover-none"),
    pytest.param(lambda: paired_spin_crossover(0.25, True), "True", id="crossover-bool"),
    pytest.param(lambda: multiplicity_rate(HALF, "0.5"), "'0.5'", id="rate-string"),
    pytest.param(lambda: multiplicity_rate(HALF, False), "False", id="rate-bool"),
    pytest.param(lambda: saddle_solve(HALF, "0.5"), "'0.5'", id="saddle-string"),
    pytest.param(lambda: saddle_solve(ONE, True), "True", id="saddle-bool"),
])
def test_non_real_spin_densities_are_refused(call, value):
    # non-reals reached a float comparison and raised TypeError; bools passed as 0 and 1
    with pytest.raises(ValueError, match=f"^spin density must be a real number, got {re.escape(value)}$"):
        call()


EVEN_SITES = "the spin-1/2 J_z=0 sector needs an even number of sites, got 7"
CODES_OF_FOUR, DIGITS_OF_FOUR = spinsectors.configuration_space(1, 4)
# math.comb, numpy indices and range raised OverflowError past 2**63 - 1
HUGE = 10**30
PAST_EXACT = f"sites must be at most 2**63 - 1, got {HUGE}"


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: paired_spin_crossover(0.25, 0.0), "spin density must lie in (0, 1], got 0.0",
                 id="crossover-zero"),
    pytest.param(lambda: sd2_asymptotic(12, 0.5, 1.5), "spin density must lie in (0, 1], got 1.5",
                 id="sd2-above-one"),
    pytest.param(lambda: saddle_solve(HALF, 0.0), "spin density must lie in (0, 1], got 0.0",
                 id="saddle-zero"),
    pytest.param(lambda: multiplicity_rate(HALF, 1.5), "spin density must lie in [0, 1], got 1.5",
                 id="rate-above-one"),
    pytest.param(lambda: multiplicity_rate(HALF, math.nan), "spin density must lie in [0, 1], got nan",
                 id="rate-nan"),
    pytest.param(lambda: ChainSpec(HALF, 7), EVEN_SITES, id="chain-odd"),
    pytest.param(lambda: CoupledPairGeometry(7, 1, 3), EVEN_SITES, id="geometry-odd"),
    pytest.param(lambda: max_spin_state_entropy(7, 3), EVEN_SITES, id="stretched-odd"),
    pytest.param(lambda: diagonalize_and_resolve(ChainSpec(HALF, 8), Fraction(1, 20)),
                 "fraction 1/20 gives an empty bipartition at L=8", id="ed-empty-cut"),
    pytest.param(lambda: entanglement_entropy(SINGLET, 0), "cut must satisfy 0 < cut < 2, got 0",
                 id="state-cut-zero"),
    pytest.param(lambda: entanglement_entropy(np.ones(6) / math.sqrt(6), 1),
                 "state of length 6 is not a 2**L product state", id="state-length-six"),
    pytest.param(lambda: entanglement_entropy(np.array([[0.6, 0.8], [0.8, -0.6]]), 1),
                 "state must be a 1-D array, got shape (2, 2)", id="state-two-dimensional"),
    pytest.param(lambda: singlet_average_asymptotic(12, 1), "fraction must lie in (0, 1), got 1",
                 id="singlet-fraction-one"),
    pytest.param(lambda: fixed_filling_average(0, 8, 4), "filling must lie in (0, 1), got 0",
                 id="filling-zero"),
    pytest.param(lambda: SectorLabel(HALF, 4, 2, 1), "two_jz=1 incompatible with two_j=2",
                 id="label-parity"),
    pytest.param(lambda: spinsectors.multiplicity(HALF, HUGE, 0), PAST_EXACT, id="multiplicity-huge"),
    pytest.param(lambda: spin_half_multiplicity(HUGE, 2), PAST_EXACT, id="spin-half-multiplicity-huge"),
    pytest.param(lambda: spin_half_multiplicity(2**63, 2**63), f"sites must be at most 2**63 - 1, got {2**63}",
                 id="spin-half-multiplicity-2**63"),
    pytest.param(lambda: spinsectors.hilbert_fraction(HUGE, 0), PAST_EXACT, id="hilbert-fraction-huge"),
    pytest.param(lambda: spinsectors.zero_magnetization_dim(HUGE), PAST_EXACT, id="zero-magnetization-dim-huge"),
    pytest.param(lambda: spinsectors.admissible_two_j(HALF, HUGE), PAST_EXACT, id="admissible-two-j-huge"),
    pytest.param(lambda: singlet_average_exact(HUGE, HUGE // 2), PAST_EXACT, id="singlet-exact-huge"),
    pytest.param(lambda: sd2_average_closed(HUGE, 2, HUGE // 2), PAST_EXACT, id="sd2-closed-huge"),
    pytest.param(lambda: max_spin_state_entropy(HUGE, HUGE // 4), PAST_EXACT, id="stretched-huge"),
    pytest.param(lambda: ensemble_entropy_samples(HUGE, 0, HUGE // 2, 4, 1), PAST_EXACT, id="samples-huge"),
    # spin-1 fusion ran site by site, for ever
    pytest.param(lambda: spinsectors.multiplicity(ONE, HUGE, 0), PAST_EXACT, id="multiplicity-spin-one-huge"),
    pytest.param(lambda: spinsectors.multiplicity_table(ONE, HUGE), PAST_EXACT, id="multiplicity-table-huge"),
    # the slice was enumerated site by site before its codes were checked
    pytest.param(lambda: spinsectors.configuration_space(1, 10**19),
                 f"codes of {10**19} sites with 2 local states overflow 64-bit integers",
                 id="configuration-space-huge"),
    pytest.param(lambda: spinsectors.bond_matrix_elements(0, DIGITS_OF_FOUR, ((1, 1.0, 1),), CODES_OF_FOUR),
                 "two_s must be >= 1, got 0", id="bond-matrix-elements-spin-zero"),
])
def test_out_of_range_inputs_are_refused(call, message):
    def overdue(signum, frame):
        raise TimeoutError("no refusal within 3 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(3)
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("samples", [2**53 + 1, 10**30])
def test_sample_counts_past_2_53_are_refused_before_any_plan(monkeypatch, samples):
    # np.linspace refused 10**30 with a casting error, and 2**53 + 1 went on to
    # list ~2**53 stacks; the geometry is read first, so here it stops any plan
    def forbidden(*args):
        raise AssertionError("a sampling plan was started")

    monkeypatch.setattr(ensembles, "coupled_geometry", forbidden)
    message = f"^samples must be at most 2\\*\\*53, got {samples}$"
    with pytest.raises(ValueError, match=message):
        ensemble_entropy_samples(8, 2, 4, samples, 1)
    with pytest.raises(ValueError, match=message):
        random_state_average(12, 2, 6, samples, 1, workers=1)


def test_asymptotic_forms_take_sizes_past_the_exact_bound():
    assert spinsectors.spin_half_multiplicity_log(HUGE, 0) == pytest.approx(HUGE * math.log(2.0))
    assert singlet_average_asymptotic(HUGE, 0.5) == pytest.approx(HUGE * math.log(2.0) / 2)


# each call takes an even L; 2 (L // 4) is an admissible 2J of density 1/2
FLOAT_RANGE_CALLS = {
    "singlet_average_asymptotic": lambda L: singlet_average_asymptotic(L, Fraction(1, 4)),
    "max_spin_entropy_asymptotic": lambda L: max_spin_entropy_asymptotic(L, Fraction(1, 4)),
    "fixed_filling_average": lambda L: fixed_filling_average(Fraction(1, 3), L, L // 2),
    "haar_average_leading": lambda L: haar_average_leading(L, L // 2),
    "spin_half_multiplicity_log": lambda L: spinsectors.spin_half_multiplicity_log(L, 0),
    "log_multiplicity_saddle": lambda L: spinsectors.log_multiplicity_saddle(HALF, L, 2 * (L // 4)),
    "sd2_asymptotic": lambda L: sd2_asymptotic(L, Fraction(1, 2), 0.5),
    "hilbert_fraction_asymptotic": lambda L: spinsectors.hilbert_fraction_asymptotic(L, 2 * (L // 4)),
    "fraction_peak_density": fraction_peak_density,
}


@pytest.mark.parametrize("name", FLOAT_RANGE_CALLS)
def test_log_and_asymptotic_forms_refuse_sizes_past_float_range(name):
    # past float range (~1.8e308) these raised a bare OverflowError converting L;
    # up to the bound 2**1000 every float product stays finite
    call = FLOAT_RANGE_CALLS[name]
    for sites in (10**300, 2**1000):
        assert math.isfinite(call(sites))
    for sites in (2**1000 + 2, 2**1024, 10**400):
        message = f"^sites must be at most 2\\*\\*1000, got an integer of {sites.bit_length()} bits$"
        with pytest.raises(ValueError, match=message):
            call(sites)


# each call takes (sites, int type); the CG table stops at L = 100
NUMPY_INPUT_CALLS = {
    "singlet_average_exact": lambda L, i: singlet_average_exact(i(L), i(L // 2)),
    "sd2_average_closed": lambda L, i: sd2_average_closed(i(L), i(4), i(L // 2)),
    "max_spin_state_entropy": lambda L, i: max_spin_state_entropy(i(L), i(L // 4)),
    "cg_columns": lambda L, i: float(np.concatenate(list(
        CoupledPairGeometry(i(min(L, 100)), i(4), i(min(L, 100) // 2)).cg_columns.values())).sum()),
    "spin_half_multiplicity": lambda L, i: spin_half_multiplicity(i(L), i(0)),
    "multiplicity": lambda L, i: spinsectors.multiplicity(HALF, i(L), i(2)),
    "hilbert_fraction": lambda L, i: spinsectors.hilbert_fraction(i(L), i(0)),
    "singlet_average_asymptotic": lambda L, i: singlet_average_asymptotic(i(L), Fraction(1, 4)),
    "sd2_asymptotic": lambda L, i: sd2_asymptotic(i(L), Fraction(1, 2), 0.5),
    "haar_average_leading": lambda L, i: haar_average_leading(i(L), i(L // 2)),
    "fixed_filling_average": lambda L, i: fixed_filling_average(Fraction(1, 3), i(L), i(L // 4)),
    # <1 1/2; 3 -1/2 | 1 0> at L = 12, larger spins (m as Python ints) beyond
    "clebsch_gordan": lambda L, i: clebsch_gordan(i(L // 12 * 2 - 1), 1, i(L // 12 * 2 + 1), -1, i(2), 0),
    "log_multiplicity_saddle": lambda L, i: spinsectors.log_multiplicity_saddle(HALF, i(L), i(2)),
    "hilbert_fraction_asymptotic": lambda L, i: spinsectors.hilbert_fraction_asymptotic(i(L), i(2)),
    "fraction_peak_density": lambda L, i: fraction_peak_density(i(L)),
}


@pytest.mark.parametrize("sites", [12, 100, 2000])
@pytest.mark.parametrize("name", NUMPY_INPUT_CALLS)
def test_numpy_integers_give_the_python_values_and_types(name, sites):
    # numpy sizes mixed with exact big integers raised OverflowError from
    # L ~ 64 on, and gave numpy scalars below that; unsigned spins wrapped
    # round in differences (<1 1/2; 3 -1/2 | 1 0> gave 0.0, and geometries
    # built from them warned of an overflow), and an int8 2 L overflowed at L = 100
    want = NUMPY_INPUT_CALLS[name](sites, int)
    for itype in (np.int64, np.uint64, np.uint16, np.int8):
        if sites <= np.iinfo(itype).max:
            got = NUMPY_INPUT_CALLS[name](sites, itype)
            assert type(got) is type(want) and got == want, itype


def test_narrow_numpy_local_dims_give_the_python_entropy():
    # np.int8(2)**10 wrapped round to 0, so a 2**10 state was refused as no 2**L product state
    state = np.zeros(2**10)
    state[[0, -1]] = math.sqrt(0.5)
    want = entanglement_entropy(state, 3, 2)
    assert entanglement_entropy(state, np.int8(3), np.int8(2)) == want == pytest.approx(math.log(2), rel=1e-15)


EPS = np.finfo(float).eps


def within_route_tolerance(got, want):
    """|got - want| <= 32 eps max(1, |want|) elementwise: two summation orders."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= 32 * EPS * np.maximum(1.0, np.abs(want))))


# geometries of the Schmidt-block tests: (14, 6, 7) has no m = 0 block; at
# (4, 4, 2) the even-J_A class of m = 0 is empty
BLOCK_GRID = [(8, 2, 4), (12, 6, 6), (20, 2, 10), (14, 6, 7), (16, 4, 6), (4, 4, 2), (8, 0, 4), (12, 2, 3)]


class TestEntropyKernels:
    def test_singlet_pair(self):
        state = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        assert entanglement_entropy(state, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_product_state(self):
        state = np.zeros(16)
        state[3] = 1.0
        assert entanglement_entropy(state, 2) == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            entanglement_entropy(np.ones(4), 1)

    def test_nan_state_rejected(self):
        # a NaN norm fails no `> tol` test: the state must still be refused, not give 0
        with pytest.raises(ValueError, match="not normalized"):
            entanglement_entropy(np.array([1.0, 0.0, 0.0, math.nan]), 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_single_precision_states_give_their_casts_entropy(self, monkeypatch, dtype):
        # every norm was held to 1e-10, which refused these states, normalized
        # in their own precision, as |psi| = 0.9999998807907104
        rng = np.random.default_rng(5)

        def draw(*shape):
            x = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if dtype is np.complex64 else 0)
            x = x.astype(dtype)
            return x / np.linalg.norm(x, axis=0)

        vector, stack = draw(256), draw(70, 6)
        _, digits = su2.configuration_space(1, 8)
        got = entanglement_entropy(vector, 3), slice_entanglement_entropy(stack, digits, [0, 2, 5])
        # the casts are off 1 by ~1e-7, which double precision refuses
        monkeypatch.setattr(ensembles, "_check_normalized", lambda state: None)
        double = np.promote_types(dtype, float)
        want = (entanglement_entropy(vector.astype(double), 3),
                slice_entanglement_entropy(stack.astype(double), digits, [0, 2, 5]))
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("dtype,off", [(np.float64, 2e-10), (np.float32, 1e-3), (np.complex64, 1e-3)])
    def test_states_off_their_precision_are_refused(self, dtype, off):
        vector = np.full(256, (1 + off) / 16, dtype)
        stack = np.full((70, 3), (1 + off) / math.sqrt(70), dtype)
        _, digits = su2.configuration_space(1, 8)
        with pytest.raises(ValueError, match="^state is not normalized: "):
            entanglement_entropy(vector, 3)
        with pytest.raises(ValueError, match="^state is not normalized: "):
            slice_entanglement_entropy(stack, digits, [0, 2, 5])

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="^state is empty$"):
            entanglement_entropy([], 1)

    def test_local_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match="^local_dim must be >= 2, got 1$"):
            entanglement_entropy([1.0, 0.0], 1, local_dim=1)

    def test_fractional_cut_rejected(self):
        with pytest.raises(ValueError, match=r"^cut must be an integer, got 1\.5$"):
            entanglement_entropy([1.0, 0.0, 0.0, 0.0], 1.5)

    def test_pure_state_entropy_is_positive_zero(self):
        # max(-0.0, 0.0) keeps its first argument, which gave -0.0 here
        assert math.copysign(1.0, schmidt_square_entropy([1.0])) == 1.0

    def test_stack_equals_each_row_bitwise(self):
        # rows with values at and below the floor, slightly negative ones from
        # rounding, a pure state, and values just above 1 whose sum clips to +0.0
        rng = np.random.default_rng(7)
        lams = rng.random((7, 37))
        lams /= lams.sum(axis=1, keepdims=True)
        lams[1, :5] = -1e-17
        lams[2, ::3] = ensembles.EIGENVALUE_FLOOR
        lams[3] = 0.0
        lams[3, 4] = 1.0
        lams[4, 10:20] = 1e-15
        lams[5] = 1.0 + 1e-15
        got = schmidt_square_entropy(lams)
        rows = [schmidt_square_entropy(row) for row in lams]
        assert got.shape == (7,) and all(type(value) is float for value in rows)
        assert np.array_equal(got.view(np.uint64), np.array(rows).view(np.uint64))
        assert got[3] == got[5] == 0.0 and math.copysign(1.0, got[3]) == 1.0
        want = [oracles.concatenated_entropy([(row, 1)]) for row in lams]
        np.testing.assert_allclose(got, want, rtol=32 * EPS, atol=32 * EPS)

    def test_slice_state_longer_than_configs_rejected(self):
        # the third amplitude lay outside every Schmidt block, and the entropy came out -0.0
        configs = [[0, 1], [1, 0]]
        with pytest.raises(ValueError, match="^state of length 3 does not match 2 configurations$"):
            slice_entanglement_entropy([1.0, 0.0, 0.0], configs, [0])

    @pytest.mark.parametrize("state,configs,message", [
        ([2**-0.5] * 2, [[0, 1], [0, 1]], "^configs repeat a configuration$"),
        ([0.5] * 4, [[0, 0], [0, 1], [1, 0], [1, 1]], "^configs differ in total magnetization$"),
        ([1.0], [1], r"^configs must be a 2-D array, got shape \(1,\)$"),
    ], ids=["repeated-config", "mixed-magnetization", "one-dimensional-configs"])
    def test_malformed_slices_rejected(self, state, configs, message):
        # the repeated configuration gave 0.3466, the product state |+>|+>
        # over all four configurations ln 2 in place of 0, and 1-D configs a
        # bare IndexError
        with pytest.raises(ValueError, match=message):
            slice_entanglement_entropy(state, configs, [0])
        with pytest.raises(ValueError, match=message):
            bipartition_maps(configs, [0])

    def test_slice_state_of_three_dimensions_rejected(self):
        # a (2, 1, 1) state was taken as one vector and gave ln 2
        state = np.array([1.0, 1.0]).reshape(2, 1, 1) / math.sqrt(2.0)
        with pytest.raises(ValueError, match=r"^state must be a vector or a column stack, got shape \(2, 1, 1\)$"):
            slice_entanglement_entropy(state, [[0, 1], [1, 0]], [0])

    @pytest.mark.parametrize("two_s,sites", [(1, 8), (2, 6)])
    def test_incomplete_slice_matches_dense(self, two_s, sites):
        # two thirds of the J_z = 0 slice in random order: past one site on
        # either side its Schmidt blocks lack some (row, column) pairings,
        # which read 0
        d = two_s + 1
        rng = np.random.default_rng(17)
        _, digits = su2.configuration_space(two_s, sites, 0)
        configs = digits[rng.choice(len(digits), 2 * len(digits) // 3, replace=False)]
        index = configs @ d ** np.arange(sites - 1, -1, -1)  # site 0 leads the dense reshape
        real = rng.standard_normal((len(configs), 3))
        complex_ = real + 1j * rng.standard_normal(real.shape)
        for stack in (real, complex_):
            stack = stack / np.linalg.norm(stack, axis=0)
            dense = np.zeros((d**sites, stack.shape[1]), dtype=stack.dtype)
            dense[index] = stack
            for cut in range(1, sites):
                lacks = any((order == len(configs)).any() for order, _ in bipartition_maps(configs, range(cut)))
                assert lacks or cut in (1, sites - 1)
                got = slice_entanglement_entropy(stack, configs, range(cut))
                want = [entanglement_entropy(column, cut, d) for column in dense.T]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a_sites,message", [
        ([0, 0, 1], r"^a_sites \[0, 0, 1\] repeats a site$"),
        ([-1, 0], r"^a_sites \[-1, 0\] must hold integer sites 0 <= i < 6, got -1$"),
        ([7], r"^a_sites \[7\] must hold integer sites 0 <= i < 6, got 7$"),
        ([6, 0], r"^a_sites \[6, 0\] must hold integer sites 0 <= i < 6, got 6$"),
        ([0, 1.0], r"^a_sites \[0, 1.0\] must hold integer sites 0 <= i < 6, got 1.0$"),
    ], ids=["repeated", "negative", "past-the-end", "at-the-end", "non-integer"])
    def test_bad_subsystem_sites_rejected(self, a_sites, message):
        # a repeated site counted twice, a negative one also landed in B, and
        # one past the chain raised an IndexError
        _, digits = su2.configuration_space(1, 6, 0)
        state = np.full(len(digits), 1.0 / math.sqrt(len(digits)))
        with pytest.raises(ValueError, match=message):
            slice_entanglement_entropy(state, digits, a_sites)
        with pytest.raises(ValueError, match=message):
            bipartition_maps(digits, a_sites)

    def test_nan_slice_state_rejected(self):
        _, digits = su2.configuration_space(1, 6, 0)
        state = np.full(len(digits), 1.0 / math.sqrt(len(digits)))
        state[3] = math.nan
        for states in (state, np.column_stack([state, state])):
            with pytest.raises(ValueError, match="not normalized"):
                slice_entanglement_entropy(states, digits, range(3))

    def test_slice_entropy_matches_dense(self):
        # random J_z=0 states of 6 spins, one real and a stack of four complex
        # ones (one per column): dense reduced density matrix oracle
        rng = np.random.default_rng(5)
        basis = sector_basis(HALF, 6, 2, 0)
        coeff = rng.standard_normal(len(basis))
        coeff /= np.linalg.norm(coeff)
        state = coeff @ basis.vectors
        stack = rng.standard_normal((len(basis), 4)) + 1j * rng.standard_normal((len(basis), 4))
        stack = basis.vectors.T @ (stack / np.linalg.norm(stack, axis=0))
        # site i maps to bit 5-i so that reshape rows are the first sites
        index = [sum(1 << (5 - i) for i, m in enumerate(cfg) if m > 0) for cfg in basis.configs]

        def dense(amps):
            out = np.zeros(2**6, dtype=amps.dtype)
            out[index] = amps
            return out

        for cut in (1, 2, 3, 4):
            got = slice_entanglement_entropy(state, basis.configs, range(cut))
            assert got == pytest.approx(entanglement_entropy(dense(state), cut), abs=1e-10)
            got = slice_entanglement_entropy(stack, basis.configs, range(cut))
            assert got.shape == (4,)
            for column, value in zip(stack.T, got):
                assert value == pytest.approx(entanglement_entropy(dense(column), cut), abs=1e-10)

    def test_stretched_state_entropy_matches_explicit_superposition(self):
        # J = L/2 state: uniform superposition of all zero-magnetization configs
        for sites, cut in ((8, 4), (10, 3)):
            basis = sector_basis(HALF, sites, sites, 0)
            assert len(basis) == 1
            state = basis.vectors[0]
            explicit = slice_entanglement_entropy(state, basis.configs, range(cut))
            assert max_spin_state_entropy(sites, cut) == pytest.approx(explicit, abs=1e-12)


class TestPageAverages:
    def test_trivial(self):
        assert page_average(1, 1) == 0.0

    def test_two_qubits(self):
        # digamma recurrence: psi(5)-psi(3) - 1/4 = 1/3
        assert page_average(2, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_fractional_dimension_rejected(self):
        # int() would truncate 2.5 to 2 and return page_average(2, 2)
        with pytest.raises(ValueError, match="^dim_a must be an integer >= 1, got 2.5$"):
            page_average(2.5, 2)

    def test_large_square_is_nearly_maximal(self):
        assert page_average(2**10, 2**10) == pytest.approx(10 * math.log(2) - 0.5, abs=0.01)

    def test_dimensions_beyond_float_range(self):
        # ln m - 1/2 + O(1/m) for an m x m space with m = 2**1100 > 1.8e308
        assert page_average(2**1100, 2**1100) == pytest.approx(1100 * math.log(2) - 0.5, rel=1e-14)
        assert digamma(10**400) == pytest.approx(400 * math.log(10), rel=1e-15)

    def test_leading_terms(self):
        assert haar_average_leading(20, 10) == pytest.approx(6.43147, abs=2e-5)
        assert haar_average_leading(20, 15) == haar_average_leading(20, 5)

    def test_fixed_filling(self):
        assert fixed_filling_average(0.5, 20, 10) == pytest.approx(6.3349, abs=2e-4)
        # away from f=1/2 the sqrt(L) and -1/2 terms are absent
        expected = 5 * math.log(2) + (0.25 + math.log(0.75)) / 2
        assert fixed_filling_average(0.5, 20, 5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("filling", [Fraction(5e-324), Fraction(1, 10**400)], ids=["subnormal", "1e-400"])
    def test_fixed_filling_at_extreme_fillings_is_finite(self, filling):
        # ln((1-n)/n) overflowed to inf times a zero root (NaN) at 5e-324, and
        # float(n) = 0.0 raised a math domain error at 1e-400; n and 1 - n give
        # the same value, which tends to (f + ln(1-f))/2 as n -> 0
        for cut in (5, 3):
            limit = (cut / 10 + math.log(1 - cut / 10)) / 2
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = [fixed_filling_average(n, 10, cut) for n in (filling, 1 - filling)]
            assert values[0] == values[1] == pytest.approx(limit, abs=1e-12)

    def test_fixed_filling_volume_coefficient(self):
        # leading term per site approaches the binary Shannon entropy of the filling
        shannon = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        value = fixed_filling_average(Fraction(1, 4), 400, 100) / 100
        assert value == pytest.approx(shannon, rel=1e-3)

    def test_digamma_values(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)
        assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-12)
        # frozen reference: psi(10.5) = psi(0.5) + sum_{k=0..9} 1/(k+0.5)
        psi_half = -0.5772156649015329 - 2 * math.log(2)
        expected = psi_half + sum(1.0 / (k + 0.5) for k in range(10))
        assert digamma(10.5) == pytest.approx(expected, abs=1e-12)

    def test_digamma_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-3.0)


class TestSingletAverage:
    def test_hand_value_four_sites(self):
        assert singlet_average_exact(4, 2) == pytest.approx(0.5 + math.log(3) / 2, abs=1e-12)

    def test_two_sites(self):
        assert singlet_average_exact(2, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_beyond_float_range_matches_exact_integer_sum(self):
        # at L=2000 the sector dimension is ~1e598: the same sum with every
        # multiplicity an exact integer and psi(n) = ln n - 1/(2n) - 1/(12n^2)
        # (dropped tail < 1e-25) for n >= 10**6
        def count(sites, two_j):
            q = (sites - two_j) // 2
            return math.comb(sites, q) - (math.comb(sites, q - 1) if q else 0)

        def psi(n):
            return digamma(n) if n < 10**6 else math.log(n) - 1 / (2 * n) - 1 / (12 * n * n)

        sites = 2000
        for cut in (1000, 500):
            n0 = count(sites, 0)
            terms = []
            for two_ja in range(0, cut + 1, 2):
                na, nb = count(cut, two_ja), count(sites - cut, two_ja)
                terms.append((na * nb / n0) * (
                    psi(n0 + 1) - psi(nb + 1) - (na - 1) / (2 * nb) + math.log(1.0 + two_ja)
                ))
            assert singlet_average_exact(sites, cut) == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_cut_mirror_symmetry(self):
        for sites, cut in ((12, 5), (10, 3), (16, 6)):
            assert singlet_average_exact(sites, cut) == pytest.approx(
                singlet_average_exact(sites, sites - cut), abs=1e-12
            )

    def test_monte_carlo_oracle(self):
        est = random_state_average(10, 0, 5, samples=800, seed=21, complex_coefficients=True)
        assert abs(est.mean - singlet_average_exact(10, 5)) < 3 * est.sem

    def test_monte_carlo_oracle_quarter_cut(self):
        est = random_state_average(12, 0, 3, samples=2000, seed=21, complex_coefficients=True)
        assert abs(est.mean - singlet_average_exact(12, 3)) < 3 * est.sem

    def test_asymptotic_value(self):
        assert singlet_average_asymptotic(20, Fraction(1, 2)) == pytest.approx(
            6.141751, abs=2e-5
        )

    def test_approach_at_half_fraction(self):
        d12 = abs(singlet_average_exact(12, 6) - singlet_average_asymptotic(12, Fraction(1, 2)))
        d28 = abs(singlet_average_exact(28, 14) - singlet_average_asymptotic(28, Fraction(1, 2)))
        assert d28 < d12

    def test_odd_sites_rejected(self):
        with pytest.raises(ValueError):
            singlet_average_exact(7, 3)


class TestMaxSpinState:
    def test_asymptotic_symmetry(self):
        assert max_spin_entropy_asymptotic(100, Fraction(1, 4)) == pytest.approx(
            max_spin_entropy_asymptotic(100, Fraction(3, 4)), abs=1e-14
        )

    def test_asymptotic_value(self):
        assert max_spin_entropy_asymptotic(100, Fraction(1, 2)) == pytest.approx(
            2.33523, abs=2e-4
        )

    def test_large_chain_matches_asymptotics(self):
        exact = max_spin_state_entropy(1000, 500)
        assert abs(exact - max_spin_entropy_asymptotic(1000, Fraction(1, 2))) < 0.01

    def test_stretched_entropies_match_a_forty_digit_sum(self):
        # the weights step from m = -min(J_A, J_B) by exact ratios, at 40 digits;
        # measured worst 6.3 eps (2J_A + 2J_B), at (5000, 5000): the error of
        # the log-binomial columns, which any order of the sum leaves in place
        mp = pytest.importorskip("mpmath")
        spins = [0, 1, 2, 3, 4, 7, 10, 33, 64, 199, 500, 1001, 2500, 5000]
        grid = [(a, b) for a in spins for b in spins if (a - b) % 2 == 0]
        for (a, b), value in zip(grid, ensembles._stretched_entropies(grid)):
            if min(a, b) == 0:  # one weight, exactly 1
                assert value == 0.0
                continue
            with mp.workdps(40):
                ka, kb = (a + min(a, b)) // 2, (b - min(a, b)) // 2  # J_A - m, J_B + m
                w = mp.mpf(math.comb(a, ka) * math.comb(b, kb)) / math.comb(a + b, (a + b) // 2)
                terms = []
                for _ in range(min(a, b) + 1):
                    terms.append(w * mp.log(w))
                    w = w * (ka * (b - kb)) / ((a - ka + 1) * (kb + 1))
                    ka, kb = ka - 1, kb + 1
                exact = -mp.fsum(terms)
                assert abs(value - exact) <= 16 * np.finfo(float).eps * (a + b) * exact, (a, b)


class TestSd2:
    def test_exact_at_maximal_spin(self):
        for sites in (8, 12, 16):
            # one stretched-column entropy serves both
            assert sd2_average_closed(sites, sites, sites // 2) == max_spin_state_entropy(
                sites, sites // 2
            )

    def test_closed_vs_numeric(self):
        values = ensemble_entropy_samples(
            16, 8, 8, 1000, 5, ("sd2",), complex_coefficients=True
        )["sd2"]
        sem = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - sd2_average_closed(16, 8, 8)) < 3 * sem

    def test_closed_approaches_asymptotic(self):
        d16 = abs(sd2_average_closed(16, 4, 8) - sd2_asymptotic(16, Fraction(1, 2), 0.25))
        d32 = abs(sd2_average_closed(32, 8, 16) - sd2_asymptotic(32, Fraction(1, 2), 0.25))
        d64 = abs(sd2_average_closed(64, 16, 32) - sd2_asymptotic(64, Fraction(1, 2), 0.25))
        assert d64 < d32 < d16
        assert d64 < 0.15

    def test_mirror_rule_above_half(self):
        assert sd2_asymptotic(64, Fraction(3, 4), 0.5) == sd2_asymptotic(64, Fraction(1, 4), 0.5)
        assert singlet_average_asymptotic(20, Fraction(3, 4)) == \
            singlet_average_asymptotic(20, Fraction(1, 4))

    def test_asymptotic_reduces_to_max_spin_at_unit_density(self):
        assert sd2_asymptotic(100, Fraction(1, 2), 1.0) == pytest.approx(
            max_spin_entropy_asymptotic(100, Fraction(1, 2)), abs=1e-14
        )

    @pytest.mark.parametrize("sites,fraction", [(4, Fraction(1, 2)), (1000, Fraction(1, 4))])
    def test_asymptotic_keeps_precision_at_small_density(self, sites, fraction):
        # the same terms at 650 digits, where neither j**1.5 underflows nor (1+j)/(1-j) rounds to 1
        mp = pytest.importorskip("mpmath")
        with mp.workdps(650):
            f = mp.mpf(fraction.numerator) / fraction.denominator
            for j in (1e-300, 1e-20, 1e-8, 1e-3, 0.5, 0.999):
                x = mp.mpf(j)
                rate = -((1 + x) / 2 * mp.log((1 + x) / 2) + (1 - x) / 2 * mp.log((1 - x) / 2))
                exact = rate * f * sites + mp.log(mp.pi * mp.e * f * (1 - f) * sites / 2) / 2
                if fraction == Fraction(1, 2):
                    exact += (mp.sqrt(1 - x * x) * mp.log((1 - x) / (1 + x))
                              / (2 * mp.sqrt(2 * mp.pi)) * mp.sqrt(sites))
                exact += mp.log(2 * x**1.5 / mp.sqrt(1 - x * x))
                exact -= (1 - 2 * f * (1 - x)) / (2 * x) * mp.log((1 + x) / (1 - x))
                exact += (f + mp.log(1 - f)) / 2
                value = sd2_asymptotic(sites, fraction, j)
                assert abs(value - float(exact)) <= 1e-13 * max(1.0, abs(value)), j

    def test_volume_coefficient_is_rate_function(self):
        from spinsectors import multiplicity_rate

        assert multiplicity_rate(HALF, 0.5) == pytest.approx(0.562335, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sd2_asymptotic(100, Fraction(1, 2), 0.0)
        with pytest.raises(ValueError):
            sd2_average_closed(10, 0, 3)  # odd cut has no J_B = -J_A partner

    def test_crossover(self):
        assert paired_spin_crossover(Fraction(1, 2), 0.5) == pytest.approx(0.25, abs=1e-12)
        assert paired_spin_crossover(Fraction(1, 4), 0.5) is None
        x = paired_spin_crossover(Fraction(2, 5), 0.5)
        assert x is not None and 0.0 < x < 0.2  # below the center j*f = 0.2

    @pytest.mark.parametrize("fraction", [Fraction(1, 4), Fraction(1, 3), 0.7])
    def test_crossover_near_unit_density_stays_in_its_bracket(self, fraction):
        # the bisection started at x = f + 1e-12 here and passed a density
        # above 1 to the rate function, which raised
        ff = float(min(Fraction(fraction), 1 - Fraction(fraction)))
        for j in (1.0, 1 - 1e-13, 0.999999):
            x = paired_spin_crossover(fraction, j)
            assert x is None or max(0.0, j - (1.0 - ff)) <= x <= j * ff, (j, x)
        assert paired_spin_crossover(fraction, 1.0) == ff


class TestSd1:
    def test_sd1_equals_full_at_singlet_sector(self):
        samples = ensemble_entropy_samples(8, 0, 4, 32, 7, ("full", "sd1"))
        assert np.allclose(samples["full"], samples["sd1"], atol=1e-12)

    def test_sd1_bounded_by_subsystem_a(self):
        # sd1 pinches rho_A, so with L_A > L_B it may exceed L_B ln 2 but not L_A ln 2
        sites, two_j, cut = 10, 4, 7
        samples = ensemble_entropy_samples(sites, two_j, cut, 16, 3, ("full", "sd1"))
        assert samples["sd1"].max() > (sites - cut) * math.log(2)
        assert samples["sd1"].max() <= cut * math.log(2)
        assert np.all(samples["sd1"] >= samples["full"] - 1e-10)

    def test_sd1_above_full_at_half_cut(self):
        samples = ensemble_entropy_samples(20, 2, 10, 300, 17, ("full", "sd1"))
        diff = samples["sd1"] - samples["full"]
        assert diff.mean() > 3 * diff.std(ddof=1) / math.sqrt(len(diff))


class TestSampling:
    def test_fractional_sample_count_rejected(self):
        # a fractional count used to return its integer part of samples
        with pytest.raises(ValueError, match=r"^samples must be an integer, got 2\.5$"):
            ensemble_entropy_samples(12, 6, 6, 2.5, 1)

    def test_fractional_cut_rejected(self):
        with pytest.raises(ValueError, match=r"^cut must be an integer, got 6\.5$"):
            ensemble_entropy_samples(12, 6, 6.5, 5, 1)

    def test_one_dimensional_sector(self):
        est = random_state_average(2, 0, 1, samples=10, seed=3)
        assert est.mean == pytest.approx(math.log(2), abs=1e-12)
        assert est.std_dev == 0.0

    def test_seeded_determinism(self):
        a = ensemble_entropy_samples(8, 2, 4, 24, 11, ("full", "sd1", "sd2"))
        b = ensemble_entropy_samples(8, 2, 4, 24, 11, ("full", "sd1", "sd2"))
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_worker_count_invariance(self, monkeypatch):
        methods = ("full", "sd1", "sd2")
        serial = ensemble_entropy_samples(8, 2, 4, 20, 11, methods)
        monkeypatch.setenv(WORKERS_ENV, "3")
        parallel = ensemble_entropy_samples(8, 2, 4, 20, 11, methods)
        for method in methods:
            assert np.array_equal(serial[method], parallel[method])

    def test_pool_failure_falls_back_to_serial_with_a_warning(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        methods = ("full", "sd1", "sd2")
        serial = ensemble_entropy_samples(8, 2, 4, 20, 11, methods, workers=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.warns(RuntimeWarning, match=r"3 workers failed .*no process pool here"):
            fallback = ensemble_entropy_samples(8, 2, 4, 20, 11, methods, workers=3)
        for method in methods:
            assert np.array_equal(serial[method], fallback[method])

    @pytest.mark.parametrize("call,message", [
        *[pytest.param(partial(sampler, 8, 2, 4, 4, seed, workers=2), rf"^seed must be {tail}$",
                       id=f"{sampler.__name__}-{seed!r}")
          for sampler in (ensemble_entropy_samples, random_state_average)
          for seed, tail in ((-1, ">= 0, got -1"), (1.5, "an integer, got 1.5"),
                             (None, "an integer, got None"), ("7", "an integer, got '7'"))],
        pytest.param(partial(EntropyEstimate.from_samples, [], "full", 0),
                     "^an estimate needs at least one sample$", id="empty-estimate"),
    ])
    def test_bad_seeds_and_empty_estimates_rejected(self, monkeypatch, call, message):
        # refused before any draw or process pool starts
        def forbidden(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(ensembles, "_draw_stack", forbidden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
        with pytest.raises(ValueError, match=message):
            call()

    def test_entropy_upper_bound(self):
        values = ensemble_entropy_samples(12, 4, 3, 100, 2, ("full", "sd1", "sd2"))
        bound = 3 * math.log(2) + 1e-9
        for arr in values.values():
            assert arr.min() >= 0.0 and arr.max() <= bound

    def test_estimate_fields(self):
        est = random_state_average(8, 2, 4, samples=100, seed=4)
        assert isinstance(est, EntropyEstimate)
        assert est.sem == pytest.approx(est.std_dev / 10.0, abs=1e-15)
        assert est.samples == 100 and est.seed == 4 and est.method == "full"

    def test_empty_sector_rejected(self):
        with pytest.raises(ValueError):
            coupled_geometry(8, 3, 4)  # odd two_j in an even chain

    def test_empty_methods_rejected_before_drawing(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(ensembles, "_draw_stack", draw)
        with pytest.raises(ValueError, match="methods is empty"):
            ensemble_entropy_samples(20, 2, 10, 20, 1, methods=(), workers=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'fulll'"):
            ensemble_entropy_samples(8, 2, 4, 4, 1, ("fulll",))

    def test_bare_method_string_rejected(self):
        # iterated, "full" was refused as the unknown method 'f'
        with pytest.raises(ValueError, match="^" + re.escape(
                f"methods must be a sequence of names from {ensembles.ENSEMBLE_METHODS}, got 'full'") + "$"):
            ensemble_entropy_samples(8, 2, 4, 4, 1, methods="full")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            ensemble_entropy_samples(8, 2, 4, 4, 1, workers=0)

    def test_non_integer_worker_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "two")
        with pytest.raises(ValueError, match=f"{WORKERS_ENV} must be an integer >= 1, got 'two'"):
            ensemble_entropy_samples(8, 2, 4, 4, 1)

    def test_workers_follow_the_work_of_the_samples(self, monkeypatch):
        # the sample count alone sent 1,000 L = 12 samples, no faster than
        # serial there, to a pool
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ensembles.resolve_workers(1000, 20 * 20 + 512) == 1
        assert ensembles.resolve_workers(1000, 70 * 70 + 512) == 4
        assert ensembles.resolve_workers(300, 252 * 252 + 512) == 4
        assert ensembles.resolve_workers(255, 10**9) == 1
        seen = []
        monkeypatch.setattr(ensembles, "resolve_workers", lambda n, work: seen.append((n, work)) or 1)
        ensemble_entropy_samples(12, 2, 6, 5, 1)
        assert seen == [(5, 20 * 20 + 512)]

    def test_default_sample_counts(self):
        assert default_sample_count("full", 20) == 1000
        assert default_sample_count("full", 22) == 100
        assert default_sample_count("sd1", 30) == 1000
        assert default_sample_count("sd2", 32) == 100

    @pytest.mark.parametrize("method,sites", [("fulll", 10), ("closed", 40)])
    def test_default_sample_count_refuses_unknown_methods(self, method, sites):
        with pytest.raises(ValueError, match=rf"^unknown method '{method}', expected one of "):
            default_sample_count(method, sites)

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_non_bool_complex_coefficients_rejected(self, value):
        with pytest.raises(ValueError, match=rf"^complex_coefficients must be a bool, got {value!r}$"):
            ensemble_entropy_samples(8, 2, 4, 4, 1, complex_coefficients=value)

    def test_numpy_bool_complex_coefficients_accepted(self):
        for flag in (False, True):
            got = ensemble_entropy_samples(8, 2, 4, 4, 1, complex_coefficients=np.bool_(flag))
            want = ensemble_entropy_samples(8, 2, 4, 4, 1, complex_coefficients=flag)
            assert np.array_equal(got["full"], want["full"])


class TestCoupledState:
    @pytest.mark.parametrize("sites,two_j,cut", [(8, 2, 3), (8, 2, 5), (10, 4, 4), (10, 4, 7)])
    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_sample_entropy_matches_explicit_state(self, sites, two_j, cut, complex_coefficients):
        # one sampled W, expanded in the explicit coupled basis, has the
        # sampler's full entropy
        geo = coupled_geometry(sites, two_j, cut)
        w = draw_w((31, cut), geo, complex_coefficients)
        basis = coupled_sector_basis(HALF, sites, cut, two_j)
        coeff = [
            w[geo.rows[ja].start + a - 1, geo.cols[jb].start + b - 1]
            for ja, jb, a, b in basis.labels
        ]
        state = np.asarray(coeff) @ basis.vectors
        explicit = slice_entanglement_entropy(state, basis.configs, range(cut))
        sampled = _entropies_from_blocks(geo, w, ("full",))["full"]
        assert sampled == pytest.approx(explicit, abs=1e-12)


class TestFlipSymmetricBlocks:
    @pytest.mark.parametrize("sites,two_j,cut", BLOCK_GRID)
    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_matches_unsplit_reference(self, sites, two_j, cut, complex_coefficients):
        geo = coupled_geometry(sites, two_j, cut)
        for draw in range(3):
            w = draw_w((41, draw), geo, complex_coefficients)
            got = _entropies_from_blocks(geo, w, ("full", "sd1"))
            ref = unsplit_entropies(geo, w)
            for method in ("full", "sd1"):
                assert got[method] == pytest.approx(ref[method], abs=1e-12)
            if two_j == 0:
                assert got["full"] == pytest.approx(got["sd1"], abs=1e-12)


class TestConcatenatedRoute:
    # the sampler sums one kernel call per Schmidt block, weighted by its
    # copies; the reference concatenates every spectrum, repeated by its
    # copies, and sums each sample with one np.dot: they differ by rounding
    @pytest.mark.parametrize("sites,two_j,cut", BLOCK_GRID)
    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_sampler_matches_concatenated_spectra(self, sites, two_j, cut, complex_coefficients):
        geo = coupled_geometry(sites, two_j, cut)
        stack = np.array([draw_w((47, i), geo, complex_coefficients) for i in range(4)])
        for w in (stack, stack[0]):
            got = _entropies_from_blocks(geo, w, ensembles.ENSEMBLE_METHODS)
            want = oracles.sampler_entropies_reference(geo, w, ensembles.ENSEMBLE_METHODS)
            for method in ensembles.ENSEMBLE_METHODS:
                assert np.shape(got[method]) == np.shape(want[method])
                assert within_route_tolerance(got[method], want[method]), method


class TestDraw:
    @pytest.mark.parametrize("sites,two_j,cut", BLOCK_GRID)
    @pytest.mark.parametrize("complex_coefficients", [False, True])
    @pytest.mark.parametrize("samples,stack", [(1, 1), (3, 1), (3, 3), (10, 3)])
    def test_stacks_equal_the_pairwise_draw_bitwise(self, monkeypatch, sites, two_j, cut,
                                                    complex_coefficients, samples, stack):
        # every W the sampler hands to the Schmidt pass, in stacks of `stack`
        # (10 samples in stacks of 3 end ragged), has the bit pattern of the
        # reference's pair-by-pair draw of the same seed sequence (seed, i),
        # whose ints the sampler splits into 32-bit words itself: one word,
        # the zero word, two and three words, more than four words with i
        # (the seed sequence's extra mixing) and numpy integers.  The stacks
        # of the first seed go on to the Schmidt pass, the others read zeros
        geo = coupled_geometry(sites, two_j, cut)
        w_bytes = math.prod(geo.shape) * (16 if complex_coefficients else 8)
        monkeypatch.setattr(ensembles, "STACK_BYTES", stack * w_bytes)
        schmidt_pass = ensembles._entropies_from_blocks
        seeds = [29, 0, 2**32 + 5, 2**64 + 3, 2**100 + 1, np.int64(2**40 + 7), np.uint64(2**64 - 1)]
        for seed in seeds:
            stacks = []

            def record(geo, w, methods):
                stacks.append(w.copy())
                if seed == seeds[0]:
                    return schmidt_pass(geo, w, methods)
                return dict.fromkeys(methods, np.zeros(len(w)))

            monkeypatch.setattr(ensembles, "_entropies_from_blocks", record)
            ensemble_entropy_samples(sites, two_j, cut, samples, seed, ("full",), complex_coefficients,
                                     workers=1)
            assert [len(w) for w in stacks] == [min(stack, samples - lo)
                                                for lo in range(0, samples, stack)]
            want = np.array([draw_w((seed, i), geo, complex_coefficients) for i in range(samples)])
            got = np.concatenate(stacks)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), seed

    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_sample_indices_across_a_word_boundary(self, complex_coefficients):
        # i = 2**32 - 2, 2**32 - 1 take one word and i = 2**32 two
        geo = coupled_geometry(12, 6, 6)
        stack = range(2**32 - 2, 2**32 + 1)
        w = np.zeros((len(stack),) + geo.shape, dtype=complex if complex_coefficients else float)
        ensembles._draw_stack(geo, w, 2**33 + 1, stack)
        want = np.array([draw_w((2**33 + 1, i), geo, complex_coefficients) for i in stack])
        assert np.array_equal(w.view(np.uint64), want.view(np.uint64))


class TestStackPlan:
    # W of (12, 6, 6) is small enough to patch STACK_BYTES to stacks of 3
    SITES, TWO_J, CUT, SEED = 12, 6, 6, 17

    def stack_bytes(self, complex_coefficients, stack):
        rows, cols = coupled_geometry(self.SITES, self.TWO_J, self.CUT).shape
        return stack * rows * cols * (16 if complex_coefficients else 8) + 1

    @pytest.mark.parametrize("samples,workers,sizes", [
        # each worker's np.linspace share cut into stacks of at most 3, ragged
        # at the share's end; a worker with no samples has no stack
        (10, 1, [3, 3, 3, 1]), (10, 2, [3, 2, 3, 2]), (10, 3, [3, 3, 3, 1]),
        (7, 2, [3, 3, 1]), (7, 3, [2, 2, 3]), (2, 3, [1, 1]), (1, 2, [1]),
    ])
    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_each_worker_share_is_cut_into_stacks(self, monkeypatch, samples, workers, sizes,
                                                  complex_coefficients):
        monkeypatch.setattr(ensembles, "STACK_BYTES", self.stack_bytes(complex_coefficients, 3))
        stacks, pools = [], []
        schmidt_pass = ensembles._entropies_from_blocks

        def record(geo, w, methods):
            stacks.append(w.copy())
            return schmidt_pass(geo, w, methods)

        class SerialPool:
            # records the pool's size and chunks, and maps in this process
            def __init__(self, max_workers):
                pools.append([max_workers])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, job, items, chunksize):
                pools[-1].append(chunksize)
                return map(job, items)

        monkeypatch.setattr(ensembles, "_entropies_from_blocks", record)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        ensemble_entropy_samples(self.SITES, self.TWO_J, self.CUT, samples, self.SEED, ("full",),
                                 complex_coefficients, workers=workers)
        assert [len(w) for w in stacks] == sizes
        geo = coupled_geometry(self.SITES, self.TWO_J, self.CUT)
        want = np.array([draw_w((self.SEED, i), geo, complex_coefficients) for i in range(samples)])
        assert np.array_equal(np.concatenate(stacks).view(np.uint64), want.view(np.uint64))
        # no idle process: the pool has at most one process per stack
        size = min(workers, len(sizes))
        assert pools == ([] if size == 1 else [[size, math.ceil(len(sizes) / size)]])

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_pooled_samples_equal_serial_bitwise(self, monkeypatch, workers, complex_coefficients):
        monkeypatch.setattr(ensembles, "STACK_BYTES", self.stack_bytes(complex_coefficients, 3))
        args = (self.SITES, self.TWO_J, self.CUT, 10, self.SEED, ensembles.ENSEMBLE_METHODS,
                complex_coefficients)
        serial = ensemble_entropy_samples(*args, workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a serial fallback fails the test
            pooled = ensemble_entropy_samples(*args, workers=workers)
        for method in ensembles.ENSEMBLE_METHODS:
            assert np.array_equal(pooled[method].view(np.uint64), serial[method].view(np.uint64))


class TestStackedSamples:
    @pytest.mark.parametrize("sites,two_j,cut", BLOCK_GRID)
    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_stack_equals_each_sample_alone(self, sites, two_j, cut, complex_coefficients):
        geo = coupled_geometry(sites, two_j, cut)
        methods = ("full", "sd1", "sd2") if two_j else ("full", "sd1")
        stack = np.array([draw_w((43, i), geo, complex_coefficients) for i in range(4)])
        got = _entropies_from_blocks(geo, stack, methods)
        for method in methods:
            alone = [_entropies_from_blocks(geo, w, methods)[method] for w in stack]
            assert got[method].shape == (len(stack),)
            if complex_coefficients:
                assert list(got[method]) == alone
            else:
                np.testing.assert_allclose(got[method], alone, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_ragged_chunks_equal_one_sample_chunks(self, monkeypatch, complex_coefficients):
        sites, two_j, cut, methods = 12, 6, 6, ("full", "sd1", "sd2")
        rows, cols = coupled_geometry(sites, two_j, cut).shape
        w_bytes = rows * cols * (16 if complex_coefficients else 8)
        monkeypatch.setattr(ensembles, "STACK_BYTES", 3 * w_bytes + 1)  # chunks 3, 3, 3, 1
        chunked = ensemble_entropy_samples(sites, two_j, cut, 10, 21, methods,
                                           complex_coefficients, workers=1)
        monkeypatch.setattr(ensembles, "STACK_BYTES", 1)
        single = ensemble_entropy_samples(sites, two_j, cut, 10, 21, methods,
                                          complex_coefficients, workers=1)
        for method in methods:
            assert np.array_equal(chunked[method], single[method])

    def test_sd2_reads_the_geometry_table(self, monkeypatch):
        # sd2 takes its stretched weights c_m**2 from the geometry's one CG
        # table, as full and sd1 do; the log-binomial columns serve the closed
        # forms only
        def refused(ja, jb):
            raise AssertionError("Monte Carlo read the log-binomial stretched columns")

        monkeypatch.setattr(su2, "_stretched_pass", refused)
        monkeypatch.setattr(ensembles, "_stretched_pass", refused)
        coupled_geometry.cache_clear()  # a cached geometry may hold columns read before
        values = ensemble_entropy_samples(12, 6, 6, 3, 13, ("sd2",), workers=1)["sd2"]
        assert values.shape == (3,) and np.all(np.isfinite(values)) and np.all(values > 0)

    def test_real_samples_pinned(self):
        # values of the per-block entropy kernel, each block weighted by its
        # copies, compared with ==
        pinned = {
            (12, 6, 6): {
                "full": [3.303103009147173, 3.32893285356059, 3.282902033015188],
                "sd1": [3.439108053177417, 3.486774069322849, 3.4179169129657003],
                "sd2": [3.038435403774472, 3.0349207697473104, 2.922511625171754],
            },
            (16, 4, 8): {
                "full": [4.935383733046869, 4.947708500032379, 4.929743993347233],
                "sd1": [5.11918479888697, 5.132095348680575, 5.1248338537877824],
                "sd2": [4.035255888431618, 4.075054279134306, 4.066530431645236],
            },
        }
        for args, values in pinned.items():
            got = ensemble_entropy_samples(*args, 3, 13, tuple(values), False, workers=1)
            assert {m: list(v) for m, v in got.items()} == values

    def test_complex_samples_pinned(self):
        # values of the per-block entropy kernel, each block weighted by its
        # copies, compared with ==
        pinned = {
            (12, 6, 6): {
                "full": [3.2878327295564462, 3.3608970940775658, 3.274663728656616],
                "sd1": [3.4125859202424054, 3.454519908172688, 3.400773046642799],
                "sd2": [3.0471159533328396, 3.123369565932364, 2.9648550200323722],
            },
            (16, 4, 8): {
                "full": [4.932029369839715, 4.945571307621941, 4.949598599744011],
                "sd1": [5.116389723346817, 5.147909032083382, 5.1428858150436625],
                "sd2": [4.063937880300082, 4.0945823871909175, 4.071701550488865],
            },
        }
        for args, values in pinned.items():
            got = ensemble_entropy_samples(*args, 3, 13, tuple(values), True, workers=1)
            assert {m: list(v) for m, v in got.items()} == values


class TestGramSizes:
    # the Schmidt pass diagonalizes each block's Gram, one eigvalsh call over
    # the stack, before it forms the next; LAPACK runs once per matrix, and
    # not at all for a 1 x 1 Gram, which is its own spectrum
    def test_one_eigvalsh_call_per_schmidt_block(self, monkeypatch):
        # a 20-sample stack of (12, 6, 6) with full, sd1 and sd2 has 19 Grams
        # of 5 sizes, 8 of them 1 x 1; each of the other 11 is diagonalized by
        # its own stacked call: each m block, then its sd1 parts, then each
        # sd2 pairing
        geo = coupled_geometry(12, 6, 6)
        stack = np.array([draw_w((59, i), geo, True) for i in range(20)])
        want = []
        for _, weights, sd1_parts, _ in geo.m_blocks:
            want += [min(weights.shape)] + [min(weights[part].shape) for part in sd1_parts]
        want += [min(geo.na[a], geo.nb[b]) for a, b in geo.sd2_pairs]
        assert len(want) == 19 and len(set(want)) == 5 and want.count(1) == 8
        eigvalsh = np.linalg.eigvalsh
        sizes = []

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        _entropies_from_blocks(geo, stack, ensembles.ENSEMBLE_METHODS)
        assert sizes == [(20, size, size) for size in want if size > 1]

    def test_each_gram_diagonalized_before_the_next_is_formed(self, monkeypatch):
        # no Gram of a stack outlives its block: the pass alternates one Gram
        # product and one eigvalsh call of that Gram, for every method, where
        # the Gram is larger than 1 x 1; a 1 x 1 Gram is read as it is formed
        geo = coupled_geometry(12, 6, 6)
        stack = np.array([draw_w((61, i), geo, True) for i in range(6)])
        gram, eigvalsh = ensembles._gram, np.linalg.eigvalsh
        log = []

        def logged_gram(x):
            log.append(("gram", gram(x)))
            return log[-1][1]

        def logged_eigvalsh(a, *args, **kwargs):
            log.append(("eigvalsh", a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(ensembles, "_gram", logged_gram)
        monkeypatch.setattr(np.linalg, "eigvalsh", logged_eigvalsh)
        _entropies_from_blocks(geo, stack, ensembles.ENSEMBLE_METHODS)
        grams = [g for event, g in log if event == "gram"]
        assert len(grams) == 19 and sum(g.shape[-1] == 1 for g in grams) == 8
        want = []
        for g in grams:
            want += [("gram", g)] + ([("eigvalsh", g)] if g.shape[-1] > 1 else [])
        assert [event for event, _ in log] == [event for event, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(log, want))

    @pytest.mark.parametrize("complex_coefficients", [False, True])
    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (4, 1, 6), (4, 6, 1), (3, 1, 1)])
    def test_one_row_grams_equal_their_eigvalsh_bitwise(self, complex_coefficients, shape):
        # a 1 x 1 Gram skips LAPACK, whose n = 1 spectrum is real(A(1,1));
        # the stacks hold an all-zero matrix
        rng = np.random.default_rng(11)
        x = rng.standard_normal(shape)
        if complex_coefficients:
            x = x + 1j * rng.standard_normal(shape)
        if len(shape) == 3:
            x[1] = 0.0
        got = ensembles._schmidt_squares(x)
        want = np.linalg.eigvalsh(ensembles._gram(x))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGeometry:
    def test_pair_count_identity(self):
        # sum over pairings of n_A n_B equals the sector multiplicity
        for sites, two_j, cut in ((6, 2, 2), (12, 4, 5), (16, 0, 8), (14, 14, 7)):
            geo = coupled_geometry(sites, two_j, cut)
            assert geo.sector_dim == spin_half_multiplicity(sites, two_j)

    def test_multiplicities_match_closed_form(self):
        # the geometry keeps one partner run per J_A, sums n_A n_B over the runs
        # by prefix sums of n_B, and steps its binomials by a recurrence over
        # one J run; the reference enumerates every pair and evaluates each n_J
        # on its own
        cases = [
            (sites, two_j, cut)
            for sites in range(2, 41, 2)
            for two_j in range(0, sites + 1, 2)
            for cut in range(1, sites)
        ]
        cases += [(2000, 0, 1000), (2000, 1000, 700), (2000, 2000, 999)]
        for sites, two_j, cut in cases:
            geo = CoupledPairGeometry(sites, two_j, cut)
            pairs, na, nb, total = brute_force_geometry(sites, two_j, cut)
            assert geo.pairs == pairs
            assert geo.ja_list == list(na) and geo.jb_list == list(nb)
            assert geo.na == na and geo.nb == nb
            assert geo.m_max == max(min(pair) for pair in pairs)
            assert geo.sector_dim == total == spin_half_multiplicity(sites, two_j)
            partner_dims = dict.fromkeys(na, 0)
            for ja, jb in pairs:
                partner_dims[ja] += nb[jb]
            # the same exact integers and one correctly rounded division: bitwise equal, in order
            assert list(geo.weights.items()) == [(ja, na[ja] * partner_dims[ja] / total) for ja in na]

    def test_singlet_weights_equal_the_stepwise_chain(self):
        # the library sums the J = 0 products by blocks of spins and steps each
        # weight as a fraction; the reference steps every product from the last
        cases = [(sites, 0, cut) for sites in range(2, 41, 2) for cut in range(1, sites)]
        cases += [(10**4, 0, 5000), (10**4, 0, 4999), (10**4, 0, 2500), (2000, 0, 1000), (2000, 0, 500)]
        for sites, two_j, cut in cases:
            geo = CoupledPairGeometry(sites, two_j, cut)
            na, nb, weights, sector_dim = oracles.singlet_geometry_reference(sites, cut)
            assert list(geo.na.items()) == list(na.items()) and list(geo.nb.items()) == list(nb.items())
            assert list(geo.weights.items()) == list(weights.items())  # floats: bitwise, in order
            assert geo.sector_dim == sector_dim

    def test_multiplicity_runs_equal_binomial_differences(self):
        # a run steps n_J down from its top spin by exact ratios of small
        # integers; the reference takes two binomials per spin
        for sites in range(1, 61):
            want = {t: oracles.multiplicity_by_binomials(sites, t) for t in range(sites % 2, sites + 1, 2)}
            for two_lo in want:
                for two_hi in range(two_lo, sites + 1, 2):
                    run = combinatorics._multiplicity_run(sites, two_lo, two_hi)
                    assert list(run.items()) == [(t, want[t]) for t in range(two_lo, two_hi + 1, 2)]
        for sites, two_lo, two_hi in ((5000, 0, 5000), (7500, 0, 2500)):
            run = combinatorics._multiplicity_run(sites, two_lo, two_hi)
            assert list(run.items()) == [
                (t, oracles.multiplicity_by_binomials(sites, t)) for t in range(two_lo, two_hi + 1, 2)]

    def test_guard_catches_a_wrong_multiplicity(self, monkeypatch):
        exact_run = ensembles._multiplicity_run

        def off_by_one(sites, two_lo, two_hi):
            run = exact_run(sites, two_lo, two_hi)
            run[two_hi] += 1
            return run

        monkeypatch.setattr(ensembles, "_multiplicity_run", off_by_one)
        # J = 0 runs have one partner each, whose products step by the ballot
        # ratio, on and off the half cut; (2000, 400, 1000) sums runs of several
        # partners with nb is na
        cases = ((6, 2, 2), (12, 4, 5), (2000, 0, 1000), (2000, 1000, 700), (2000, 0, 500),
                 (2000, 400, 1000))
        for sites, two_j, cut in cases:
            with pytest.raises(AssertionError):
                CoupledPairGeometry(sites, two_j, cut)

    @pytest.mark.parametrize("position", ["top", "middle", "bottom", "tail"])
    def test_guard_catches_any_wrong_stored_multiplicity(self, monkeypatch, position):
        # every stored n_A and n_B is read by the closed forms and Monte Carlo;
        # at J = 0 each run's stored neighbours are checked against the ballot
        # ratio, so a wrong value anywhere in a run is caught, also in the tail
        # of zero weights, whose block sums read only each block's first spin
        # (at (10**4, 0, 5000) the weights are 0.0 from 2J_A = 1910 on); n_J, a
        # run of one spin, stays exact, so the sum alone does not catch it
        exact_run = ensembles._multiplicity_run

        def off_by_one(sites, two_lo, two_hi):
            run = exact_run(sites, two_lo, two_hi)
            if two_lo == two_hi:
                return run
            spins = list(run)
            run[{"top": spins[-1], "middle": spins[len(spins) // 2], "bottom": spins[0],
                 "tail": spins[3 * len(spins) // 4]}[position]] += 1
            return run

        monkeypatch.setattr(ensembles, "_multiplicity_run", off_by_one)
        cases = ((10, 0, 4), (2000, 0, 1000), (2000, 0, 500), (10000, 0, 2500), (10000, 0, 5000),
                 (2000, 1000, 700), (2000, 400, 1000))
        for sites, two_j, cut in cases:
            with pytest.raises(AssertionError):
                CoupledPairGeometry(sites, two_j, cut)

    def test_ballot_steps_set_off_no_collection(self):
        # the multiplicity runs and the J = 0 chain keep no tracked object per
        # spin alive (their ratios are lists of ints, not of pairs), so stepping
        # 1000 spins does not set off a garbage collection inside a closed form
        run = combinatorics._multiplicity_run
        half, quarter_a, quarter_b = run(1000, 0, 1000), run(500, 0, 500), run(1500, 0, 500)
        n_j = run(2000, 0, 0)[0]

        def steps():
            run(2000, 0, 2000)
            ensembles._singlet_weights(1000, 1000, half, half, n_j)
            ensembles._singlet_weights(500, 1500, quarter_a, quarter_b, n_j)

        assert collections_during(steps) == []

    def test_singlet_average_sets_off_no_collection(self):
        # the closed forms build no partner run per J_A (one tracked tuple each,
        # 2,501 at L = 10**4): only Monte Carlo reads `partner_bounds`
        def averages():
            singlet_average_exact(10**4, 5000)
            singlet_average_exact(10**4, 2500)

        assert collections_during(averages) == []
        assert "partner_bounds" not in vars(CoupledPairGeometry(2000, 0, 1000))

    def test_guards_survive_optimized_mode(self):
        # python -O strips assert statements; the two multiplicity guards must still fire
        script = textwrap.dedent("""
            import math
            from spinsectors import combinatorics, ensembles

            assert False, "this assert must be stripped"
            exact_run = ensembles._multiplicity_run

            def off_by_one(sites, two_lo, two_hi):
                run = exact_run(sites, two_lo, two_hi)
                run[two_hi] += 1
                return run

            ensembles._multiplicity_run = off_by_one
            try:
                ensembles.CoupledPairGeometry(6, 2, 2)
            except AssertionError:
                print("geometry guard")
            try:
                ensembles.CoupledPairGeometry(10, 0, 4)
            except AssertionError as err:
                print("ballot ratio guard" if "ballot ratio" in str(err) else err)

            def off_in_the_tail(sites, two_lo, two_hi):
                run = exact_run(sites, two_lo, two_hi)
                if sites == 5000:  # its weight is 0.0, and mid-block
                    run[4000] += 1
                return run

            ensembles._multiplicity_run = off_in_the_tail
            try:
                ensembles.CoupledPairGeometry(10**4, 0, 5000)
            except AssertionError as err:
                print("tail guard" if "ballot ratio" in str(err) else err)
            # C(10**4, 5000) is prime-factored; without 1667 (once in it) n_0 = 2C/10002
            # is no integer, as 10002 = 2 * 3 * 1667
            exact_primes = combinatorics._primes_upto
            combinatorics._primes_upto = lambda n: [p for p in exact_primes(n) if p != 1667]
            try:
                combinatorics.spin_half_multiplicity(10**4, 0)
            except AssertionError:
                print("factored multiplicity guard")
            combinatorics._primes_upto = exact_primes
            exact_comb = math.comb
            math.comb = lambda n, k: exact_comb(n, k) + 1
            try:
                combinatorics.spin_half_multiplicity(6, 2)
            except AssertionError:
                print("multiplicity guard")
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(spinsectors.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == [
            "geometry guard", "ballot ratio guard", "tail guard", "factored multiplicity guard",
            "multiplicity guard", ""]

    @pytest.mark.parametrize("sites,two_j,cut", [(4, 4, 2), (8, 2, 3), (10, 0, 5), (12, 6, 6), (14, 4, 5)])
    def test_m_block_weights_expand_the_cg_table(self, sites, two_j, cut):
        # each read-only weight matrix holds c_m(J; J_A, J_B) at every entry of
        # its (J_A, J_B) group; blocks m > 0 come first, m descending
        geo = CoupledPairGeometry(sites, two_j, cut)
        ja_of_row = np.concatenate([[ja] * geo.na[ja] for ja in geo.ja_list])
        jb_of_col = np.concatenate([[jb] * geo.nb[jb] for jb in geo.jb_list])
        two_ms = [*range(geo.m_max, 0, -2), 0, 0]
        assert len(geo.m_blocks) <= len(two_ms)
        for (index, weights, _, copies), two_m in zip(geo.m_blocks, two_ms):
            assert copies == (2 if two_m else 1)
            rows = np.arange(geo.shape[0])[index[0]].ravel()
            cols = np.arange(geo.shape[1])[index[1]].ravel()
            expected = [[geo.cg_coefficient(ja_of_row[r], jb_of_col[c], two_m) for c in cols] for r in rows]
            assert np.array_equal(weights, np.array(expected).reshape(weights.shape))
            assert not weights.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                weights[0, 0] = 1.0

    def test_six_site_pairings(self):
        geo = coupled_geometry(6, 2, 2)
        assert geo.pairs == [(0, 2), (2, 0), (2, 2), (2, 4)]

    def test_cg_columns_normalized(self):
        # a log-factorial Racah sum missed unit column norms at large spin, by up to 1.6e-6 at L = 200
        for sites, two_j, cut in ((12, 4, 5), (128, 64, 64), (200, 100, 100)):
            geo = CoupledPairGeometry(sites, two_j, cut)
            for two_ja, two_jb in geo.pairs:
                mm = min(two_ja, two_jb)
                col = np.array([geo.cg_coefficient(two_ja, two_jb, m) for m in range(-mm, mm + 1, 2)])
                assert np.sum(col**2) == pytest.approx(1.0, abs=1e-12), (sites, two_ja, two_jb)

    @staticmethod
    def stretched_table_entropy(sites):
        """-sum c**2 ln c**2 over the one column of the 2J = L table at the half
        cut: the stretched state's entropy from exact weights, 0 ln 0 = 0."""
        (column,) = CoupledPairGeometry(sites, sites, sites // 2).cg_columns.values()
        weights = column**2
        kept = np.where(weights > 0.0, weights, 1.0)
        return float(-np.vecdot(kept, np.log(kept)))

    @pytest.mark.parametrize("sites", [1200, 3080])
    def test_stretched_column_at_large_spin(self, sites):
        # at 2J = L the one pairing's column spans ~1e179 (L = 1200) and ~1e462
        # (L = 3080) from edge to peak, and each run of the recursion grows as
        # far again past the peak: neither its rescaling nor the join may
        # underflow the rows kept.  The ~1.7e-11 gap at L = 3080 is the
        # reference's: against a 40-digit sum the table errs by 2e-15, but
        # max_spin_state_entropy's log-domain column by -1.9e-11
        expected = max_spin_state_entropy(sites, sites // 2)
        assert self.stretched_table_entropy(sites) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("sites", [400, 1000, 2000])
    def test_stretched_column_keeps_weights_below_the_eigenvalue_floor(self, sites):
        # the Monte Carlo floor would drop the weights below 1e-14 (124 at
        # L = 400, 832 at L = 2000) and err by -2.1e-13 to -1.2e-12
        mp = pytest.importorskip("mpmath")
        cut = sites // 2
        with mp.workdps(40):
            total = mp.mpf(math.comb(sites, sites // 2))
            weights = [math.comb(cut, k) * math.comb(sites - cut, sites // 2 - k) / total
                       for k in range(cut + 1)]
            exact = -mp.fsum(w * mp.log(w) for w in weights)
        assert abs(self.stretched_table_entropy(sites) - float(exact)) <= 1e-14

    def test_cg_columns_equal_the_scalar_coefficients(self):
        # every pairing's column of every (L <= 24, 2J, cut), from one kernel
        # call per geometry, equals clebsch_gordan's per-(j1, j2) column bitwise
        # at every m, and the exact Racah sum to 1e-15
        seen = {}
        for sites in range(2, 25, 2):
            for two_j in range(0, sites + 1, 2):
                for cut in range(1, sites):
                    for (ja, jb), column in CoupledPairGeometry(sites, two_j, cut).cg_columns.items():
                        mm = min(ja, jb)
                        assert not column[mm + 1:].any()
                        column = column[:mm + 1]
                        if (ja, jb, two_j) not in seen:
                            args = [(ja, m, jb, -m, two_j, 0) for m in range(mm, -mm - 1, -2)]
                            seen[ja, jb, two_j] = (np.array([clebsch_gordan(*a) for a in args]),
                                                   np.array([oracles.clebsch_gordan_exact(*a) for a in args]))
                        scalar, exact = seen[ja, jb, two_j]
                        assert np.array_equal(column.view(np.uint64), scalar.view(np.uint64)), (ja, jb, two_j)
                        assert np.abs(column - exact).max() <= 1e-15, (ja, jb, two_j)

    @pytest.mark.parametrize("sites,two_j,cut,stack_bytes", [
        (12, 4, 5, 1), (16, 0, 8, 1), (24, 8, 12, 1), (24, 8, 12, 8 * 40), (20, 4, 9, 8 * 30),
        (24, 0, 12, 8 * 20), (300, 100, 150, None)])
    def test_cg_chunks_equal_one_padded_call_bitwise(self, monkeypatch, sites, two_j, cut, stack_bytes):
        # the table is solved in chunks sorted by min(J_A, J_B), each padded to
        # its longest column within STACK_BYTES (a longer column alone); every
        # column equals that of one call over all pairings, zero past its end
        geo = CoupledPairGeometry(sites, two_j, cut)
        one_call = su2._cg_solve(*np.array(geo.pairs).T, two_j, 0).T
        solve, shapes = ensembles._cg_solve, []

        def logged(*args):
            columns = solve(*args)
            shapes.append(columns.shape)
            return columns

        if stack_bytes is not None:
            monkeypatch.setattr(ensembles, "STACK_BYTES", stack_bytes)
        monkeypatch.setattr(ensembles, "_cg_solve", logged)
        table = geo.cg_columns
        assert len(shapes) >= 3 and sum(n for _, n in shapes) == len(geo.pairs)
        assert all(8 * rows * n <= ensembles.STACK_BYTES or n == 1 for rows, n in shapes)
        assert list(table) == geo.pairs
        for (ja, jb), column, want in zip(geo.pairs, table.values(), one_call):
            mm = min(ja, jb)
            assert not column[mm + 1:].any() and not column.flags.writeable
            assert np.array_equal(column[:mm + 1].view(np.uint64), want[:mm + 1].view(np.uint64))

    def test_small_geometries_solve_their_table_in_one_call(self, monkeypatch):
        # L <= 40 tables (at most 13,608 padded bytes) and both benchmark
        # Monte Carlo geometries fit in STACK_BYTES: one call each, as before chunking
        calls = []
        solve = ensembles._cg_solve
        monkeypatch.setattr(ensembles, "_cg_solve", lambda *args: calls.append(1) or solve(*args))
        for sites, two_j, cut in ((40, 0, 20), (40, 20, 20), (40, 2, 13), (12, 6, 6), (20, 2, 10)):
            CoupledPairGeometry(sites, two_j, cut).cg_columns
        assert len(calls) == 5

    def test_closed_forms_run_no_racah_sum(self, monkeypatch):
        # the closed forms need multiplicities and stretched weight columns
        # only: no Clebsch-Gordan recursion, no list of every pairing and no
        # Monte Carlo layout (the scalar stretched weights live in the
        # oracles, outside the package)
        def forbidden(name):
            def call(*args):
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(ensembles, "_cg_solve", forbidden("_cg_solve"))
        monkeypatch.setattr(su2, "_cg_solve", forbidden("_cg_solve"))
        monkeypatch.setattr(su2, "_cg_columns", forbidden("_cg_columns"))
        for name in ("pairs", "rows", "cols", "m_blocks", "m_max", "draw_map"):
            monkeypatch.setattr(CoupledPairGeometry, name, property(forbidden(name)))
        assert singlet_average_exact(16, 8) == pytest.approx(4.793540345835281, rel=1e-12)
        assert sd2_average_closed(96, 20, 48) == pytest.approx(31.712661446571946, rel=1e-12)
        assert max_spin_state_entropy(96, 48) == pytest.approx(2.3200448803421794, rel=1e-12)

    def test_closed_forms_check_no_stretched_pair_again(self, monkeypatch):
        # sd2 and the stretched state take their pairs from a checked geometry
        # or cut, so their columns are evaluated without a second spin check
        def forbidden(*args):
            raise AssertionError("_check_momentum called")

        monkeypatch.setattr(su2, "_check_momentum", forbidden)
        assert sd2_average_closed(96, 20, 48) == pytest.approx(31.712661446571946, rel=1e-12)
        assert max_spin_state_entropy(96, 48) == pytest.approx(2.3200448803421794, rel=1e-12)

    def test_singlet_sum_reads_only_blocks_of_nonzero_weight(self, monkeypatch):
        # at (10**4, 5000) 1,546 of the 2,501 J_A weights n_A n_B / n_J round
        # to 0.0, and such a block adds exactly 0.0: the sum reads the other 955
        read = []
        block_average = ensembles._block_average

        def recording(blocks, d):
            read.extend(blocks)
            return block_average(read, d)

        monkeypatch.setattr(ensembles, "_block_average", recording)
        singlet_average_exact(10000, 5000)
        geo = CoupledPairGeometry(10000, 0, 5000)
        kept = [ja for ja, weight in geo.weights.items() if weight]
        assert len(kept) == 955 and len(geo.weights) == 2501
        assert read == [(geo.na[ja], geo.nb[ja], geo.weights[ja], math.log(1.0 + ja)) for ja in kept]

    def test_closed_forms_cache_no_geometry(self):
        # each closed-form call reads its geometry once; at L = 10**4 one
        # geometry holds megabytes of exact multiplicities
        coupled_geometry.cache_clear()
        singlet_average_exact(10000, 5000)
        singlet_average_exact(4000, 1000)
        sd2_average_closed(4000, 2000, 2000)
        sd2_average_closed(10000, 5000, 2500)
        assert coupled_geometry.cache_info().currsize == 0


class TestClosedFormRoutes:
    # The library forms each block product once, with the geometry's guard,
    # and evaluates a row's stretched columns together; the oracles form each
    # product where its weight is read and each column on its own.  Both
    # routes do the same float operations, so they agree to the last bit.
    @staticmethod
    def assert_routes_agree(sites, two_j, cut):
        if two_j == 0:
            assert singlet_average_exact(sites, cut) == oracles.singlet_average_reference(sites, cut)
        if two_j == sites:
            assert max_spin_state_entropy(sites, cut) == oracles.max_spin_entropy_reference(sites, cut)
        expected = oracles.sd2_average_reference(sites, two_j, cut)
        if expected is None:
            with pytest.raises(ValueError, match="no J_B = J - J_A pairing"):
                sd2_average_closed(sites, two_j, cut)
        else:
            assert sd2_average_closed(sites, two_j, cut) == expected

    def test_every_row_up_to_forty_sites(self):
        for sites in range(2, 41, 2):
            for cut in range(1, sites):
                assert page_average(2**cut, 3**sites) == oracles.page_average_reference(
                    2**cut, 3**sites)
                for two_j in range(0, sites + 1, 2):
                    self.assert_routes_agree(sites, two_j, cut)

    @pytest.mark.parametrize("sites, two_j, cut", [
        (2000, 0, 1000), (2000, 1000, 700), (10000, 0, 5000), (10000, 0, 2500)])
    def test_large_rows(self, sites, two_j, cut):
        self.assert_routes_agree(sites, two_j, cut)
        assert max_spin_state_entropy(sites, cut) == oracles.max_spin_entropy_reference(sites, cut)
        dims = spin_half_multiplicity(cut, cut % 2), spin_half_multiplicity(sites - cut, cut % 2)
        assert page_average(*dims) == oracles.page_average_reference(*dims)


class TestRealVsComplex:
    def test_gap_shrinks_with_system_size(self):
        rel = []
        for sites in (8, 12):
            r = ensemble_entropy_samples(sites, sites // 2, sites // 2, 600, 7, ("full",))["full"]
            c = ensemble_entropy_samples(
                sites, sites // 2, sites // 2, 600, 7, ("full",), complex_coefficients=True
            )["full"]
            rel.append(abs(r.mean() - c.mean()) / c.mean())
        assert rel[1] < rel[0]


class TestFigureScale:
    def test_l22_singlet_random_states(self):
        # production-scale spot check: 100 random states at L=22 track the
        # exact J=0 average
        est = random_state_average(22, 0, 11, samples=100, seed=6)
        exact = singlet_average_exact(22, 11)
        assert abs(est.mean - exact) < 0.03

    def test_real_vs_complex_all_ensembles(self):
        for method in ("full", "sd1", "sd2"):
            for denom in (2, 4):
                rel = []
                for sites in (8, 12, 16):
                    cut = sites // denom
                    real = ensemble_entropy_samples(sites, sites // 2, cut, 1000, 7, (method,))
                    cplx = ensemble_entropy_samples(
                        sites, sites // 2, cut, 1000, 7, (method,), complex_coefficients=True
                    )
                    rel.append(abs(real[method].mean() - cplx[method].mean()) / cplx[method].mean())
                assert rel[0] > rel[1] > rel[2], (method, denom, rel)
