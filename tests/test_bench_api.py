"""The library calls of the benchmark in perfbench/, run against its goldens.

perfbench/workloads.py and perfbench/tracing.py are imported as they stand,
never edited, so a library change that would break a benchmark op, its output
check or a traced run fails here first.
"""

import inspect
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spinsectors as ss
from spinsectors import spectra, su2

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDENS = workloads.load_goldens()


@pytest.mark.parametrize("coupling", workloads.ExactDiag.couplings)
def test_ed_l12_op_passes_its_check(coupling):
    wl = workloads.WORKLOADS["ed_l12"]
    wl.check(ss, GOLDENS, coupling, wl.run(ss, coupling))


def test_mc_small_op_passes_its_check():
    # 20 samples in one stack, one Schmidt pass
    wl = workloads.WORKLOADS["mc_small"]
    seed = workloads.op_seed(7, 0)
    wl.check(ss, GOLDENS, seed, wl.run(ss, seed))


def test_mc_large_op_passes_its_check():
    # an L = 20 W fills a stack alone: one sample per Schmidt pass
    wl = workloads.WORKLOADS["mc_large"]
    seed = workloads.op_seed(7, 0)
    wl.check(ss, GOLDENS, seed, wl.run(ss, seed))


def test_closed_sweep_rows_pass_their_checks():
    wl = workloads.WORKLOADS["closed_sweep"]
    rows = [row for row in wl.rows if row[1] in (64, 1000)]
    assert len(rows) == 2 * 33 + 8
    for row in rows:
        wl.check(ss, GOLDENS, row, wl.run(ss, row))


def test_every_tracing_target_resolves():
    # a traced run wraps each target by name, so a renamed function breaks it
    targets = tracing.targets()
    assert {name for *_, name, _ in targets} >= {
        "ensembles.cg_coefficient", "ensembles.entropy_kernel", "spectra.gaussianity"}
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"


def test_no_tracing_target_is_a_generator_function():
    # a wrapped generator function's span closes when the generator is made,
    # before any of its work runs, so its time lands in the caller's self time
    for owner, attr, name, _ in tracing.targets():
        assert not inspect.isgeneratorfunction(getattr(owner, attr)), name


def test_cut_maps_are_built_once():
    first = spectra._cut_maps(1, 12, 6)
    assert spectra._cut_maps(1, 12, 6) is first


def test_alternating_fractions_match_uncached_maps(monkeypatch):
    spec = ss.ChainSpec(ss.HALF, 12, 3.0)
    fractions = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 2))
    cached = [[r.entropy for r in ss.diagonalize_and_resolve(spec, f)] for f in fractions]
    assert np.array_equal(cached[0], cached[2], equal_nan=True)
    assert not np.array_equal(cached[0], cached[1], equal_nan=True)

    monkeypatch.setattr(spectra, "_cut_maps", spectra._cut_maps.__wrapped__)
    for f, got in zip(fractions, cached):
        expected = [r.entropy for r in ss.diagonalize_and_resolve(spec, f)]
        np.testing.assert_array_equal(got, expected)


def test_warm_ed_call_counts(monkeypatch):
    # the chain is one run: one eigh call per (k, J) subspace size (14 of
    # them) and one eigvalsh call per Schmidt entry and flip class (4) over
    # the central states of every block, the m_A = L/2 entry's 1 x 1 Grams
    # read without one; no bond kernel once the H terms are cached; one
    # Gaussianity call per block
    spec = ss.ChainSpec(ss.HALF, 12, 3.0)
    ss.diagonalize_and_resolve(spec)
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(np.linalg, "eigh")
    count(np.linalg, "eigvalsh")
    count(spectra, "bond_matrix_elements")
    count(su2, "bond_matrix_elements")
    count(spectra, "gaussianity_of_vector")
    ss.diagonalize_and_resolve(spec)
    blocks = 12 // 2 + 1
    assert calls == {"eigh": 14, "eigvalsh": 4, "gaussianity_of_vector": blocks}
