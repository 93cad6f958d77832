"""One benchmark process: import the library, run the warm-up op, then time ops.

    python3 perfbench/child.py '<job JSON>'

run.py starts one of these per measurement with a fresh interpreter, so the
per-process caches are filled anew, as in a CLI invocation.  Job keys:
workload, seed, start (first op index), max_ops and budget_s (stop after
that many ops or once that many seconds of ops have run; null for no limit),
traced, spans_out.  The result is one JSON line on stdout; each op is
recorded as [index, latency_s, ok, work units, repr of its input, slowdown].

Untraced children time the import, the warm-up op and every op as on-CPU
time with a speed probe (speed.py), which records the machine's slowdown
around and during each; traced children time them by the wall clock and
record no slowdown, so no probe sample lands inside a span.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Probe samples before and after the warm-up op: a process has one set-up,
# and two samples alone would leave its slowdown as noisy as one reference loop.
SETUP_OUTER_SAMPLES = 10


def timed(fn):
    """(value, error, seconds, span) of fn(), as SpeedProbe.run gives them, without a probe."""
    t = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # a raising op is timed like any other
        return None, exc, time.perf_counter() - t, None
    return value, None, time.perf_counter() - t, None


def run_job(job):
    start = (time.perf_counter(), time.process_time())  # speed.clock(), before any import
    import spinsectors as ss

    import speed
    import tracing
    from workloads import WORKLOADS, CheckFailed, load_goldens

    wl = WORKLOADS[job["workload"]]
    seed = job["seed"]
    tracer = saved = None
    if job["traced"]:
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
    probe = None if tracer is not None else speed.SpeedProbe(wl.python_share)

    def measure(fn, outer=1):
        return timed(fn) if probe is None else probe.run(fn, outer)

    if probe is None:
        imports_s = time.perf_counter() - start[0]
    else:  # on-CPU time, as the probe takes it
        imports_s = speed.on_cpu_s(start, speed.clock())
    warmup = wl.warmup_input(seed)
    _, error, warmup_s, setup_span = measure(lambda: wl.run(ss, warmup), SETUP_OUTER_SAMPLES)
    if error is not None:
        raise error
    setup_s = imports_s + warmup_s

    goldens = load_goldens()
    ops, spans, kept, observed = [], [], [], []
    errors, check_failures = {}, {}
    k = job["start"]
    loop_start = time.perf_counter()
    while True:
        if job["max_ops"] is not None and len(ops) >= job["max_ops"]:
            break
        if job["budget_s"] is not None and time.perf_counter() - loop_start >= job["budget_s"]:
            break
        x = wl.op_input(seed, k)
        if tracer is not None:
            tracer.current_op = k
        out, error, latency, span = measure(lambda: wl.run(ss, x))
        spans.append(span)
        if error is not None:
            msg = f"{type(error).__name__}: {error}"
            errors[msg] = errors.get(msg, 0) + 1
            ops.append([k, latency, False, 0, repr(x)])
            k += 1
            continue
        if tracer is not None:  # checks run unwrapped, so their library calls leave no spans
            tracing.uninstall(saved)
        try:
            wl.check(ss, goldens, x, out)
        except CheckFailed as exc:
            check_failures[str(exc)] = check_failures.get(str(exc), 0) + 1
            ops.append([k, latency, False, 0, repr(x)])
        else:
            ops.append([k, latency, True, wl.work(out), repr(x)])
            kept.append(wl.keep(out))
            observed.append(wl.observe(out))
        if tracer is not None:
            saved = tracing.install(tracer)
        k += 1

    for op, span in zip(ops, spans):
        op.append(None if probe is None else probe.slowdown(span))
    trace = None
    if tracer is not None:
        tracing.uninstall(saved)
        trace = tracing.summarize(tracer)
        if job["spans_out"]:
            Path(job["spans_out"]).parent.mkdir(parents=True, exist_ok=True)
            tracing.save(tracer, job["spans_out"])
    return {
        "setup_s": setup_s,
        "setup_slowdown": None if probe is None else probe.slowdown(setup_span),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
        "errors": errors,
        "check_failures": check_failures,
        "kept": kept,
        "observed": observed,
        "trace": trace,
    }


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run_job(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
