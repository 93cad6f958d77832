"""Machine-speed probe: times two short reference loops around and during each op.

The 2-core box shares its CPUs with other tenants.  Their load changes how
fast the same code runs, by up to ~1.6x, over milliseconds to minutes, and
it inflates CPU time as much as wall time, so no statistic of the op
latencies of one 20-second run repeats: across runs of the same code the
quartile spread of a run's median or total reached 40%, and 57% with a
load switching on and off on the other core.  The probe measures that
load as it happens, and the benchmark divides each time by it.

A probe sample times a pure-Python loop (`python_reference`, integer
arithmetic and dict updates, ~1.1 ms) and a LAPACK call (`lapack_reference`,
`eigvalsh` of a fixed 48 x 48 matrix, ~0.35 ms); neither touches
spinsectors.  Its slowdown is the weighted mean of their times over their
nominal times, the weight being the workload's share of op time spent
outside LAPACK, since load slows interpreted code and LAPACK code by
different factors.  `SpeedProbe.run` samples before an op, every
`INTERVAL_S` during it (from a SIGALRM handler, whose own time is taken out
of the op's latency) and after it.  The op's slowdown is the mean of the
samples taken from `HORIZON_S` before it starts to `HORIZON_S` after it
ends: one reference loop is too short to read the load alone, so a short
op borrows the samples of its neighbours, while a long op is read from its
own.

Every time the probe takes, of the reference loops and of the op, is the
smaller of its wall-clock and its process CPU time.  The host also stops
the VM's CPUs now and then for tens of milliseconds; a process stopped in
the middle of a 30 ms op loses that time off-CPU, no sample outside the op
sees it, and such ops made up the slowest 2% of `mc_small`.  The CPU time
leaves it out; where the CPU time is the larger (work on several threads),
the wall-clock time stands.

A time divided by its slowdown is the time at the nominal speed: the speed
at which the reference loops take `PYTHON_REFERENCE_S` and
`LAPACK_REFERENCE_S`, their median times on a 2-core shared VM (Intel Xeon
at 2.0 GHz, one BLAS thread) at the commit that added the benchmark.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PYTHON_REFERENCE_S = 1.1e-3
LAPACK_REFERENCE_S = 0.35e-3
INTERVAL_S = 0.05
HORIZON_S = 0.25

# Bound at import, before a traced run could wrap numpy.linalg.eigvalsh.
_eigvalsh = np.linalg.eigvalsh
_axis = np.arange(48.0)
_MATRIX = np.cos(np.add.outer(_axis, _axis)) + np.diag(_axis)


def clock():
    """(wall, process CPU) seconds, read together."""
    return time.perf_counter(), time.process_time()


def on_cpu_s(start, end):
    """Time between two `clock` readings: the smaller of wall and CPU time."""
    return min(end[0] - start[0], end[1] - start[1])


def python_reference():
    x, table = 1, {}
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 255] = table.get(x & 255, 0) + (x >> 8)
    return x


def lapack_reference():
    return _eigvalsh(_MATRIX)


class SpeedProbe:
    """Samples the machine's slowdown for a workload whose ops spend
    `python_share` of their time outside LAPACK."""

    def __init__(self, python_share):
        self.python_share = python_share
        self.interval_s = INTERVAL_S
        self.horizon_s = HORIZON_S
        self.times = []
        self.samples = []
        self.handler_wall_s = 0.0
        self.handler_cpu_s = 0.0

    def sample(self):
        c0 = clock()
        python_reference()
        c1 = clock()
        lapack_reference()
        c2 = clock()
        w = self.python_share
        self.times.append(c0[0])
        self.samples.append(
            w * on_cpu_s(c0, c1) / PYTHON_REFERENCE_S + (1.0 - w) * on_cpu_s(c1, c2) / LAPACK_REFERENCE_S
        )

    def _on_alarm(self, signum, frame):
        c0 = clock()
        self.sample()
        c1 = clock()
        self.handler_wall_s += c1[0] - c0[0]
        self.handler_cpu_s += c1[1] - c0[1]

    def run(self, fn, outer=1):
        """Call fn() between `outer` probe samples before and as many after.

        Returns (value, error, seconds, span): fn's return value or None,
        the exception it raised or None, its on-CPU latency without the
        probe's own time, and its (start, end) on the perf_counter clock for
        `slowdown`.
        """
        for _ in range(outer):
            self.sample()
        wall_before, cpu_before = self.handler_wall_s, self.handler_cpu_s
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        value = error = None
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        start = clock()
        try:
            value = fn()
        except Exception as exc:  # a raising op is timed like any other
            error = exc
        finally:
            # Stop the timer before reading the clock, so every handler that
            # ran is inside both the elapsed time and the handler totals.
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = clock()
            signal.signal(signal.SIGALRM, previous)
        seconds = min(
            end[0] - start[0] - (self.handler_wall_s - wall_before),
            end[1] - start[1] - (self.handler_cpu_s - cpu_before),
        )
        for _ in range(outer):
            self.sample()
        return value, error, seconds, (start[0], end[0])

    def slowdown(self, span):
        """Mean slowdown of the samples within `horizon_s` of span; call it
        once the samples after the span have been taken."""
        lo = bisect.bisect_left(self.times, span[0] - self.horizon_s)
        hi = bisect.bisect_right(self.times, span[1] + self.horizon_s)
        return statistics.fmean(self.samples[lo:hi])
