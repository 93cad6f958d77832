"""spinsectors benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  Each
measurement runs in a fresh child process (child.py), so every run pays the
per-process caches the way a CLI invocation does.  Thread pools are pinned
to one thread before numpy is imported and Monte Carlo calls use one worker:
the figures measure the program, not the scheduler of a 2-core box.  Every
end-to-end time is on-CPU time divided by the machine slowdown a speed
probe measured around it (speed.py), so it reads as at the nominal speed
of that box.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced child plus the tracing overhead against an untraced child running
the same ops.  The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the run environment and diagnostics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
# Ops of a run stop after this many seconds even if the plan has more, so a
# program several times slower than the nominal op times still gives a
# result within the 180 s a run may take.
OPS_CAP_S = 110
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(job):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child process failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job(workload, seed, start=0, max_ops=None, budget_s=None, traced=False, spans_out=None):
    return {
        "workload": workload, "seed": seed, "start": start, "max_ops": max_ops,
        "budget_s": budget_s, "traced": traced, "spans_out": spans_out,
    }


def timed_s(child):
    return sum(op[1] for op in child["ops"])


def tail(latencies):
    """Highest percentile with at least ten ops beyond it, as (value, percentile).

    With fewer than eleven ops no percentile qualifies; the maximum is
    reported with percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(wl, children):
    """Gated metrics, plus the same times not divided by the slowdown.

    Every time is on-CPU time at the nominal machine speed: divided by the
    slowdown the speed probe (speed.py) measured around and during it.  Raw
    wall-clock latencies of one run follow the load other tenants put on
    the shared VM, and their median and total spread up to 40% between runs
    of the same code.
    """
    ops = [op for c in children for op in c["ops"]]
    ok = [op for op in ops if op[2]]
    lat_ms = [1000.0 * op[1] / op[5] for op in ok]
    raw_ms = [1000.0 * op[1] for op in ok]
    setups = [c["setup_s"] / c["setup_slowdown"] for c in children]
    tail_ms, tail_pct = tail(lat_ms) if ok else (0.0, None)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(lat_ms) if ok else 0.0, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "work_per_s": (sum(op[3] for op in ok) / sum(op[1] / op[5] for op in ops), "1/s"),
        "peak_rss_mb": (max(c["maxrss_kb"] for c in children) / 1024.0, "MB"),
        "ok_frac": (len(ok) / len(ops), "fraction"),
    }
    info = {
        "ops": len(ops), "ok_ops": len(ok), "work_unit": wl.work_unit, "tail_percentile": tail_pct,
        "slowdown_median": statistics.median(op[5] for op in ops),
        "raw": {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "op_p50_ms": statistics.median(raw_ms) if ok else None,
            "op_tail_ms": tail(raw_ms)[0] if ok else None,
            "work_per_s": sum(op[3] for op in ok) / sum(op[1] for op in ops),
        },
        "setup_samples_s": setups,
        "latency_deciles_ms": statistics.quantiles(lat_ms, n=10) if len(lat_ms) > 1 else lat_ms,
    }
    return ops, metrics, info


def untraced_run(wl, seed, seconds):
    """The measuring children of the workload's plan, with set-up-only
    children spread between them until the workload has `setup_repeats`
    set-up samples."""
    processes, ops = wl.plan(seconds)
    extra = max(0, wl.setup_repeats - processes)
    measuring, setup_only = [], []
    for i in range(processes):
        measuring.append(
            run_child(job(wl.name, seed, start=i * ops, max_ops=ops, budget_s=OPS_CAP_S / processes))
        )
        for _ in range(extra * (i + 1) // processes - extra * i // processes):
            setup_only.append(run_child(job(wl.name, seed, max_ops=0)))
    ops, metrics, info = end_to_end(wl, measuring + setup_only)
    return measuring, ops, metrics, info


def per_layer(wl, traced, untraced):
    """Per-layer metrics of the traced child, normalised per sample or per op."""
    tr = traced["trace"]
    calls, total, self_s, counts = tr["calls"], tr["total_s"], tr["self_s"], tr["counts"]
    layer_s = tr["layer_s"]
    n_ops = len(traced["ops"])
    samples = sum(op[3] for op in traced["ops"]) if wl.work_unit == "sample" else 0
    op_wall = timed_s(traced)

    def per_sample(x):
        return x / samples if samples else 0.0

    def per_op(x):
        return x / n_ops

    def ms(d, name):
        return 1000.0 * d.get(name, 0.0)

    observed = traced["observed"]
    cg_calls = calls.get("su2.clebsch_gordan", 0)
    geometry_s = total.get("ensembles.geometry", 0.0) + tr["warmup_total_s"].get("ensembles.geometry", 0.0)
    m = {
        "ensembles.sampler.self_ms_per_sample": (per_sample(ms(self_s, "ensembles.ensemble_entropy_samples")), "ms/sample"),
        "ensembles.cg_lookups_per_sample": (per_sample(calls.get("ensembles.cg_coefficient", 0)), "count/sample"),
        "ensembles.entropy_kernel_ms_per_sample": (per_sample(ms(total, "ensembles.entropy_kernel")), "ms/sample"),
        "random.draw_ms_per_sample": (per_sample(ms(total, "random.draw")), "ms/sample"),
        "random.normals_per_sample": (per_sample(counts.get("random.values", 0.0)), "count/sample"),
        "linalg.eigvalsh.calls_per_sample": (per_sample(calls.get("linalg.eigvalsh", 0)), "count/sample"),
        "linalg.eigvalsh.ms_per_sample": (per_sample(ms(total, "linalg.eigvalsh")), "ms/sample"),
        "linalg.eigvalsh.computed_flop_per_sample": (per_sample(counts.get("linalg.eigvalsh.flop", 0.0)), "flop/sample"),
        "ensembles.geometry_ms_per_process": (1000.0 * geometry_s, "ms"),
        "su2.cg_calls_per_op": (per_op(cg_calls), "count/op"),
        "su2.cg_us_per_call": (1e6 * total.get("su2.clebsch_gordan", 0.0) / cg_calls if cg_calls else 0.0, "us"),
        "combinatorics.ms_per_op": (per_op(ms(layer_s, "combinatorics")), "ms/op"),
        "special.digamma_calls_per_op": (per_op(calls.get("special.digamma", 0)), "count/op"),
        "asymptotics.ms_per_op": (per_op(ms(layer_s, "asymptotics")), "ms/op"),
        "spectra.resolve.self_ms_per_op": (per_op(ms(self_s, "spectra.diagonalize_and_resolve")), "ms/op"),
        "linalg.eigh.calls_per_op": (per_op(calls.get("linalg.eigh", 0)), "count/op"),
        "linalg.eigh.ms_per_op": (per_op(ms(total, "linalg.eigh")), "ms/op"),
        "linalg.eigh.computed_flop_per_op": (per_op(counts.get("linalg.eigh.flop", 0.0)), "flop/op"),
        "numpy.einsum.ms_per_op": (per_op(ms(total, "numpy.einsum")), "ms/op"),
        "ensembles.slice_entropy.calls_per_op": (per_op(calls.get("ensembles.slice_entanglement_entropy", 0)), "count/op"),
        "ensembles.slice_entropy.ms_per_op": (per_op(ms(total, "ensembles.slice_entanglement_entropy")), "ms/op"),
        "spectra.gaussianity.ms_per_op": (per_op(ms(total, "spectra.gaussianity")), "ms/op"),
        "spectra.flagged_per_op": (per_op(sum(o.get("flagged", 0) for o in observed)), "count/op"),
        "spectra.max_j2_residual": (max([o.get("max_j2_residual", 0.0) for o in observed] + [0.0]), "1"),
        "spectra.degenerate_same_j_central": (max([o.get("degenerate_same_j_central", 0) for o in observed] + [0]), "count"),
        "su2.share": (layer_s.get("su2", 0.0) / op_wall, "fraction"),
        "linalg.eigvalsh.share": (total.get("linalg.eigvalsh", 0.0) / op_wall, "fraction"),
        "ensembles.sampler.self_share": (self_s.get("ensembles.ensemble_entropy_samples", 0.0) / op_wall, "fraction"),
        "spectra.resolve.self_share": (self_s.get("spectra.diagonalize_and_resolve", 0.0) / op_wall, "fraction"),
        "trace.overhead_frac": (op_wall / timed_s(untraced) - 1.0, "fraction"),
    }
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
    info = {
        "ops": n_ops,
        "traced_op_s": op_wall,
        "untraced_op_s": timed_s(untraced),
        "top_self_share": {name: value / op_wall for name, value in top},
        "layer_share": {name: value / op_wall for name, value in sorted(layer_s.items())},
    }
    return m, info


def traced_run(wl, seed, seconds):
    """An untraced child runs the traced plan's ops; a traced child replays
    exactly those."""
    untraced = run_child(job(wl.name, seed, max_ops=wl.traced_plan(seconds), budget_s=OPS_CAP_S / 2))
    spans = SPANS_DIR / f"spans-{wl.name}-seed{seed}.npz"
    traced = run_child(
        job(wl.name, seed, max_ops=len(untraced["ops"]), traced=True, spans_out=str(spans))
    )
    metrics, info = per_layer(wl, traced, untraced)
    info["spans_file"] = str(spans.relative_to(ROOT))
    return [untraced, traced], traced["ops"], metrics, info


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinsectors").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"numpy": np.__version__}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def environment(seed):
    from workloads import WORKERS

    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **blas_info(),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "workers": WORKERS,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="spinsectors benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinsectors" / "__init__.py").is_file():
        print(f"error: no spinsectors sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spinsectors as ss
    from workloads import WORKLOADS, CheckFailed, load_goldens

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]
    try:
        if args.trace:
            children, ops, metrics, info = traced_run(wl, args.seed, args.seconds)
        else:
            children, ops, metrics, info = untraced_run(wl, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = sum((Counter(c["errors"]) for c in children), Counter())
    check_failures = sum((Counter(c["check_failures"]) for c in children), Counter())
    # The run-level check pools the outputs of every op the result counts;
    # the two children of a traced run run the same ops, so only one counts.
    kept = [k for c in (children[-1:] if args.trace else children) for k in c["kept"]]
    run_check = None
    try:
        wl.run_check(ss, load_goldens(), kept)
    except CheckFailed as exc:
        run_check = str(exc)
    info.update(
        workload=wl.name, trace=args.trace, errors=errors, check_failures=check_failures,
        run_check_failure=run_check, env=environment(args.seed),
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": not check_failures and run_check is None,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op[2]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
