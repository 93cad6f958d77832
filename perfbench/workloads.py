"""The benchmark workloads: inputs derived from the seed, one op, output checks.

Every op calls the public API of `spinsectors` through the package object
`ss`, looked up at call time, so the traced run can wrap those names.  Load
model: one closed-loop caller, ops run one after another, Monte Carlo calls
pass `workers=1`.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# Relative tolerance of the closed-form goldens, and of the identity
# sd2_average_closed(L, L, L/2) == max_spin_state_entropy(L, L/2): the two
# sides take different routes (Racah CG sum against log binomials) and drift
# apart to ~1.4e-11 relative at L = 10**4.
CLOSED_RTOL = 1e-12
IDENTITY_RTOL = 1e-10
ED_ATOL = 1e-9
# The library takes the real part of complex eigenvectors whose global phase
# LAPACK leaves arbitrary, so the Gaussianity means depend on the
# eigensolver's rounding.  This tolerance covers every phase: turning each
# central eigenvector of the L = 12, c = 3 chain through [0, pi) moves the
# means at 2J = 0, 2, 4 by at most 0.315, 0.303 and 0.325 (9, 26 and 28
# eigenvectors per mean), so the check catches gross errors only; it no
# longer tells the measured means (1.75-1.96) from a Gaussian state's pi/2.
GAUSSIANITY_ATOL = 0.35
SEM_LIMIT = 5.0
WORKERS = 1


class CheckFailed(Exception):
    """An op returned, but its output failed a check."""


def load_goldens():
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def op_seed(seed, k):
    """Library seed of op k; k = -1 is the warm-up op.  Disjoint across seeds."""
    return seed * 2**32 + k + 1


class Workload:
    """Defaults for workloads without run-level checks or observed counts.

    Each workload also gives `plan(seconds)`, the (processes, ops per
    process) of a run, and `traced_plan(seconds)`, the op count of a traced
    run.  Both follow from `seconds` and nominal op times, measured on the
    2-core box at the commit that added the benchmark, not from a clock:
    every program measures the same ops, so a statistic over them (the tail
    percentile) has the same sample size before and after a change.  Its
    `python_share`, the share of op time spent outside numpy.linalg in the
    traced run at that commit, weights the speed probe's two reference loops.
    """

    def keep(self, out):
        """What the run-level check needs from one op's output."""
        return None

    def run_check(self, ss, goldens, kept):
        return

    def observe(self, out):
        """Counts reported by the traced run (spectra observability)."""
        return {}


class MonteCarlo(Workload):
    """One op is one `ensemble_entropy_samples` call of a fixed batch.

    Spin-1/2 sites, J_z = 0, complex coefficients: the closed forms the
    checks use are unitary-Haar results.
    """

    work_unit = "sample"
    setup_repeats = 11

    def __init__(self, name, sites, two_j, cut, batch, methods, reference_method, nominal_op_s,
                 python_share):
        self.name = name
        self.sites = sites
        self.two_j = two_j
        self.cut = cut
        self.batch = batch
        self.methods = methods
        self.reference_method = reference_method
        self.nominal_op_s = nominal_op_s
        self.python_share = python_share
        self.bound = min(cut, sites - cut) * math.log(2.0)

    def plan(self, seconds):
        """One process per set-up sample, so the samples spread over the run."""
        ops = max(1, round(seconds / (self.setup_repeats * self.nominal_op_s)))
        return self.setup_repeats, ops

    def traced_plan(self, seconds):
        return max(1, round(seconds / (2.0 * self.nominal_op_s)))

    def warmup_input(self, seed):
        return op_seed(seed, -1)

    def op_input(self, seed, k):
        return op_seed(seed, k)

    def run(self, ss, seed):
        return ss.ensemble_entropy_samples(
            self.sites, self.two_j, self.cut, self.batch, seed, self.methods,
            complex_coefficients=True, workers=WORKERS,
        )

    def work(self, out):
        return self.batch

    def check(self, ss, goldens, seed, out):
        for method in self.methods:
            values = np.asarray(out[method])
            if values.shape != (self.batch,) or not np.all(np.isfinite(values)):
                raise CheckFailed(f"{method}: expected {self.batch} finite samples")
            if values.min() < 0.0 or values.max() > self.bound:
                raise CheckFailed(f"{method}: sample outside [0, min(L_A, L_B) ln 2]")
        # sd1 is a pinching of rho_A, which cannot lower the entropy.
        if "sd1" in out and np.any(out["sd1"] < out["full"] - 1e-10):
            raise CheckFailed("sd1 sample below its full sample")

    def keep(self, out):
        return np.asarray(out[self.reference_method]).tolist()

    def reference(self, ss, goldens):
        """(mean, SEM) the run mean of `reference_method` is compared with."""
        if self.reference_method == "sd2":
            return ss.sd2_average_closed(self.sites, self.two_j, self.cut), 0.0
        ref = goldens[self.name]["reference"]
        return ref["mean"], ref["sem"]

    def run_check(self, ss, goldens, kept):
        values = np.array([v for batch in kept for v in batch])
        if values.size < 2:
            return
        mean, ref_sem = self.reference(ss, goldens)
        sem = values.std(ddof=1) / math.sqrt(values.size)
        limit = SEM_LIMIT * math.hypot(sem, ref_sem)
        if abs(values.mean() - mean) > limit:
            raise CheckFailed(
                f"{self.reference_method} mean {values.mean()!r} is more than "
                f"{SEM_LIMIT} SEM from {mean!r}"
            )


class ExactDiag(Workload):
    """One op diagonalizes and resolves the L=12 spin-1/2 chain at f = 1/2,
    then averages entropy and Gaussianity at 2J = 0, 2, 4.

    Ops alternate between coupling 0 (integrable) and 3 (chaotic).  L = 12,
    not 14: an L = 14 op takes ~3 s and its set-up ~5 s, so a run held six
    ops, too few for a median or tail that repeats between runs.
    """

    name = "ed_l12"
    work_unit = "eigenstate"
    setup_repeats = 5
    sites = 12
    couplings = (0.0, 3.0)
    two_js = (0, 2, 4)
    nominal_op_s = 0.22
    python_share = 0.87

    def plan(self, seconds):
        """One process per set-up sample, so the samples spread over the run."""
        ops = max(2, round(seconds / (self.setup_repeats * self.nominal_op_s)))
        return self.setup_repeats, ops

    def traced_plan(self, seconds):
        return max(2, round(seconds / (2.0 * self.nominal_op_s)))

    def warmup_input(self, seed):
        return self.couplings[0]

    def op_input(self, seed, k):
        return self.couplings[(seed + k) % 2]

    def run(self, ss, coupling):
        records = ss.diagonalize_and_resolve(ss.ChainSpec(ss.HALF, self.sites, coupling))
        means = {
            two_j: (
                ss.eigenstate_entropy_average(records, two_j).mean,
                ss.gaussianity_average(records, two_j),
            )
            for two_j in self.two_js
        }
        return records, means

    def work(self, out):
        return len(out[0])

    def check(self, ss, goldens, coupling, out):
        records, means = out
        golden = goldens[self.name][repr(coupling)]
        if any(r.flagged for r in records):
            raise CheckFailed(f"coupling {coupling}: flagged eigenstates")
        energies = energies_by_momentum(records)
        if sorted(energies) != sorted(golden["energies"]):
            raise CheckFailed(f"coupling {coupling}: momentum blocks differ")
        for n, values in energies.items():
            ref = np.array(golden["energies"][n])
            if len(values) != len(ref) or np.max(np.abs(np.array(values) - ref)) > ED_ATOL:
                raise CheckFailed(f"coupling {coupling}: energies differ at momentum {n}")
        if j_label_counts(records) != golden["j_counts"]:
            raise CheckFailed(f"coupling {coupling}: J-label counts differ")
        # At coupling 0 degenerate same-J eigenvectors depend on the basis,
        # so their entropies are checked only at the chaotic point.
        for two_j, (entropy, gaussianity) in golden.get("means", {}).items():
            got_entropy, got_gaussianity = means[int(two_j)]
            if abs(got_entropy - entropy) > ED_ATOL:
                raise CheckFailed(f"coupling {coupling}: entropy mean differs at 2J={two_j}")
            if abs(got_gaussianity - gaussianity) > GAUSSIANITY_ATOL:
                raise CheckFailed(f"coupling {coupling}: Gaussianity mean differs at 2J={two_j}")

    def observe(self, out):
        records = out[0]
        return {
            "flagged": sum(r.flagged for r in records),
            "max_j2_residual": max(r.j2_residual for r in records),
            "degenerate_same_j_central": degenerate_same_j_central(records),
        }


def energies_by_momentum(records):
    out = {}
    for r in records:
        out.setdefault(str(r.momentum_index), []).append(r.energy)
    return {n: sorted(values) for n, values in out.items()}


def j_label_counts(records):
    counts = Counter(f"{r.momentum_index}:{r.two_j}" for r in records)
    return dict(sorted(counts.items()))


def degenerate_same_j_central(records, tol=1e-10):
    """Neighbouring eigenstates of one block, at least one central, with equal J and energy.

    Such central eigenvectors, and their entropies, depend on the basis.
    """
    blocks = {}
    for r in records:
        blocks.setdefault(r.momentum_index, []).append(r)
    count = 0
    for block in blocks.values():
        block.sort(key=lambda r: r.energy)
        scale = max(1.0, max(abs(r.energy) for r in block))
        for a, b in zip(block, block[1:]):
            if (a.central or b.central) and a.two_j == b.two_j and b.energy - a.energy <= tol * scale:
                count += 1
    return count


def closed_rows():
    """Rows of the CLI `average --method closed|asymptotic` dispatch.

    Every admissible 2J at L = 64, 96, plus the 2J = 0 exact, 2J = 0 and
    2J = L/2 asymptotic, and 2J = L rows at L = 1000, 2000, 10000; all at
    f = 1/2, 1/4.  The 2J = L/2 rows are the ones that reach `asymptotics`
    (through `sd2_asymptotic`).
    """
    rows = []
    fractions = (Fraction(1, 2), Fraction(1, 4))
    for sites in (64, 96):
        for f in fractions:
            rows.extend(("closed", sites, two_j, f) for two_j in range(0, sites + 1, 2))
    for sites in (1000, 2000, 10000):
        for f in fractions:
            rows.extend([
                ("closed", sites, 0, f),
                ("asymptotic", sites, 0, f),
                ("asymptotic", sites, sites // 2, f),
                ("closed", sites, sites, f),
            ])
    return rows


def row_key(row):
    kind, sites, two_j, f = row
    return f"{kind}:{sites}:{two_j}:{f}"


def closed_row(ss, row):
    """The value the CLI prints for one row."""
    kind, sites, two_j, f = row
    cut = round(f * sites)
    if kind == "asymptotic":
        if two_j == 0:
            return ss.singlet_average_asymptotic(sites, f)
        return ss.sd2_asymptotic(sites, f, two_j / sites)
    if two_j == 0:
        return ss.singlet_average_exact(sites, cut)
    if two_j == sites:
        return ss.max_spin_state_entropy(sites, cut)
    return ss.sd2_average_closed(sites, two_j, cut)


class ClosedSweep(Workload):
    """One op is one row; each process sweeps every row once, in an order
    shuffled by the seed, as one CLI invocation would.
    """

    name = "closed_sweep"
    work_unit = "row"
    setup_repeats = 11
    rows = closed_rows()
    nominal_sweep_s = 6.7
    python_share = 1.0
    # Warm-up row outside the sweep, so no swept row finds its geometry cached.
    warmup_row = ("closed", 32, 8, Fraction(1, 2))

    def __init__(self):
        self._orders = {}

    def plan(self, seconds):
        return max(1, round(seconds / self.nominal_sweep_s)), len(self.rows)

    def traced_plan(self, seconds):
        return len(self.rows)

    def warmup_input(self, seed):
        return self.warmup_row

    def op_input(self, seed, k):
        sweep, i = divmod(k, len(self.rows))
        order = self._orders.get((seed, sweep))
        if order is None:
            order = list(range(len(self.rows)))
            random.Random(f"{seed}:{sweep}").shuffle(order)
            self._orders[(seed, sweep)] = order
        return self.rows[order[i]]

    def run(self, ss, row):
        return closed_row(ss, row)

    def work(self, out):
        return 1

    def check(self, ss, goldens, row, value):
        golden = goldens[self.name][row_key(row)]
        if not math.isfinite(value) or abs(value - golden) > CLOSED_RTOL * abs(golden):
            raise CheckFailed(f"{row_key(row)}: {value!r} != golden {golden!r}")
        kind, sites, two_j, f = row
        if kind == "closed" and two_j == sites and f == Fraction(1, 2):
            sd2 = ss.sd2_average_closed(sites, sites, sites // 2)
            if abs(sd2 - value) > IDENTITY_RTOL * abs(value):
                raise CheckFailed(f"{row_key(row)}: sd2 closed form {sd2!r} != {value!r}")


WORKLOADS = {
    wl.name: wl
    for wl in (
        MonteCarlo("mc_small", 12, 6, 6, 20, ("full", "sd1", "sd2"), "sd2", nominal_op_s=0.031,
                   python_share=0.7),
        MonteCarlo("mc_large", 20, 2, 10, 2, ("full",), "full", nominal_op_s=0.115,
                   python_share=0.35),
        ExactDiag(),
        ClosedSweep(),
    )
}
