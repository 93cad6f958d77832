"""Tests of the benchmark itself.

    python3 -m pytest perfbench

BLAS is pinned to one thread before numpy loads, as in a benchmark child.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402
import spinsectors as ss  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, load_goldens  # noqa: E402


def _job(workload, max_ops, traced=False):
    return run.job(workload, seed=3, max_ops=max_ops, traced=traced)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_one_op_per_workload(workload):
    result = run.run_child(_job(workload, max_ops=1))
    assert len(result["ops"]) == 1
    assert result["check_failures"] == {}
    assert result["setup_s"] > 0.0
    _, latency, ok, work, _, slowdown = result["ops"][0]
    assert latency > 0.0 and slowdown > 0.0 and result["setup_slowdown"] > 0.0
    if ok:
        assert work > 0
    else:  # only the documented L >= 2000 singlet rows may raise
        assert workload == "closed_sweep"
        assert all(msg.startswith("OverflowError") for msg in result["errors"])


def test_traced_smoke_records_layer_spans():
    result = run.run_child(_job("mc_small", max_ops=2, traced=True))
    trace = result["trace"]
    assert trace["calls"]["ensembles.ensemble_entropy_samples"] == 2
    assert trace["calls"]["linalg.eigvalsh"] > 0
    assert trace["counts"]["random.values"] > 0
    assert trace["warmup_total_s"]["ensembles.geometry"] > 0.0
    for name, self_s in trace["self_s"].items():
        assert 0.0 <= self_s <= trace["total_s"][name] + 1e-12
    assert all(op[5] is None for op in result["ops"])  # traced ops are timed without the probe


def _current(targets):
    return [getattr(owner, attr) for owner, attr, _, _ in targets]


def test_untraced_run_leaves_every_wrapped_name_identical():
    targets = tracing.targets()
    before = _current(targets)
    child.run_job(_job("mc_small", max_ops=1))
    assert all(a is b for a, b in zip(before, _current(targets)))

    saved = tracing.install(tracing.Tracer())
    try:
        assert all(a is not b for a, b in zip(before, _current(targets)))
    finally:
        tracing.uninstall(saved)
    assert all(a is b for a, b in zip(before, _current(targets)))


def test_tail_percentile_has_ten_ops_beyond_it():
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0)
    value, pct = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == 50.0


def test_end_to_end_times_are_divided_by_the_slowdown():
    ops = [[0, 0.010, True, 1, "a", 1.0], [1, 0.060, True, 1, "a", 2.0],
           [2, 0.020, True, 1, "b", 1.0], [3, 0.500, False, 0, "c", 1.0]]
    children = [{"ops": ops, "maxrss_kb": 2048, "setup_s": 0.3, "setup_slowdown": 1.5},
                {"ops": [], "maxrss_kb": 1024, "setup_s": 0.1, "setup_slowdown": 1.0}]
    _, metrics, info = run.end_to_end(WORKLOADS["closed_sweep"], children)
    assert metrics["op_p50_ms"][0] == pytest.approx(20.0)
    assert metrics["op_tail_ms"][0] == pytest.approx(30.0)
    assert metrics["work_per_s"][0] == pytest.approx(3 / 0.56)
    assert metrics["setup_s"][0] == pytest.approx(0.15)
    assert metrics["peak_rss_mb"][0] == 2.0 and metrics["ok_frac"][0] == 0.75
    assert info["raw"]["op_p50_ms"] == pytest.approx(20.0)
    assert info["raw"]["op_tail_ms"] == pytest.approx(60.0)


def test_speed_probe_takes_its_own_time_out_of_the_latency():
    probe = speed.SpeedProbe(python_share=0.5)
    probe.interval_s = 0.01
    previous = signal.getsignal(signal.SIGALRM)

    def busy():  # 0.2 s of CPU time, the handler's included
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
        return "done"

    value, error, seconds, span = probe.run(busy)
    assert value == "done" and error is None
    assert len(probe.samples) > 5  # the outer two and the ones taken during the op
    assert 0.2 - probe.handler_cpu_s - 1e-3 <= seconds <= 0.2 + 0.01
    assert probe.slowdown(span) == pytest.approx(sum(probe.samples) / len(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    value, error, seconds, _ = probe.run(lambda: 1 / 0)
    assert value is None and isinstance(error, ZeroDivisionError) and seconds >= 0.0

    _, _, seconds, _ = probe.run(lambda: time.sleep(0.1))
    assert seconds < 0.05  # time off the CPU is left out


def test_speed_probe_reads_an_op_from_samples_near_it():
    probe = speed.SpeedProbe(python_share=1.0)
    probe.horizon_s = 1.0
    probe.times, probe.samples = [0.0, 5.0, 5.5, 6.5, 9.0], [9.0, 1.0, 2.0, 3.0, 9.0]
    assert probe.slowdown((5.2, 5.6)) == pytest.approx(2.0)


def test_asymptotic_rows_reach_the_asymptotics_layer():
    wl = WORKLOADS["closed_sweep"]
    rows = [row for row in wl.rows if row[0] == "asymptotic" and row[2] > 0]
    assert len(rows) == 6
    tracer = tracing.Tracer()
    tracer.current_op = 0
    saved = tracing.install(tracer)
    try:
        for row in rows:
            wl.run(ss, row)
    finally:
        tracing.uninstall(saved)
    summary = tracing.summarize(tracer)
    assert summary["calls"]["asymptotics.multiplicity_rate"] == len(rows)
    assert summary["layer_s"]["asymptotics"] > 0.0


def _mc_output(workload):
    wl = WORKLOADS[workload]
    return wl, wl.run(ss, 1)


def test_perturbed_monte_carlo_sample_fails_its_check():
    wl, out = _mc_output("mc_small")
    wl.check(ss, {}, 1, out)
    out["sd1"][0] = out["full"][0] - 1e-6
    with pytest.raises(CheckFailed):
        wl.check(ss, {}, 1, out)
    out["sd1"][0] = wl.bound + 1e-6
    with pytest.raises(CheckFailed):
        wl.check(ss, {}, 1, out)


def test_shifted_monte_carlo_mean_fails_the_run_check():
    wl, out = _mc_output("mc_large")
    goldens = load_goldens()
    values = np.asarray(out["full"])
    wl.run_check(ss, goldens, [values.tolist()])
    with pytest.raises(CheckFailed):
        wl.run_check(ss, goldens, [(values + 0.1).tolist()])


def test_perturbed_closed_row_fails_its_check():
    wl = WORKLOADS["closed_sweep"]
    goldens = load_goldens()
    row = ("closed", 64, 64, wl.rows[0][3])
    value = wl.run(ss, row)
    wl.check(ss, goldens, row, value)
    with pytest.raises(CheckFailed):
        wl.check(ss, goldens, row, value * (1 + 1e-10))


def test_perturbed_energy_fails_the_ed_check():
    wl = WORKLOADS["ed_l12"]
    goldens = load_goldens()
    records, means = wl.run(ss, 3.0)
    wl.check(ss, goldens, 3.0, (records, means))
    entropy, gaussianity = means[2]
    wl.check(ss, goldens, 3.0, (records, {**means, 2: (entropy, gaussianity + 0.01)}))
    for perturbed in ((entropy + 1e-8, gaussianity), (entropy, gaussianity + 0.4)):
        with pytest.raises(CheckFailed):
            wl.check(ss, goldens, 3.0, (records, {**means, 2: perturbed}))
    records[7].energy += 1e-6
    with pytest.raises(CheckFailed):
        wl.check(ss, goldens, 3.0, (records, means))


def test_perturbed_result_is_counted_as_failed(monkeypatch):
    original = ss.ensemble_entropy_samples

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        out["sd1"] = out["full"] - 1.0
        return out

    monkeypatch.setattr(ss, "ensemble_entropy_samples", perturbed)
    result = child.run_job(_job("mc_small", max_ops=2))
    assert [op[2] for op in result["ops"]] == [False, False]
    assert sum(result["check_failures"].values()) == 2


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info, result = _bench("mc_small", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[section])
    assert info["env"]["seed"] == 1 and info["env"]["workers"] == 1


def test_refuses_to_run_without_the_library():
    """A directory holding only BENCHMARK.json and perfbench/ gives no result."""
    run.SPANS_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.SPANS_DIR))
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc_small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
