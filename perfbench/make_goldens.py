"""Regenerate perfbench/goldens.json from the library at the current commit.

    python3 perfbench/make_goldens.py

Goldens are the outputs the benchmark checks its ops against:
- closed_sweep: the value of every row.  Rows the library cannot evaluate
  (the 2J = 0 exact sum raises OverflowError for L >= ~1030) get the value
  of an independent exact-integer evaluation of the same sum, checked
  against the library on the rows where both run;
- ed_l12: energies and J-label counts per momentum at both couplings, and
  the entropy and Gaussianity means at coupling 3;
- mc_large: a reference mean and SEM of the full ensemble at L=20, 2J=2,
  cut 10, from REFERENCE_SAMPLES samples on a seed no run uses.
"""

import json
import math
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spinsectors as ss  # noqa: E402

from workloads import GOLDENS_PATH, WORKLOADS, closed_row, energies_by_momentum, j_label_counts, row_key  # noqa: E402

REFERENCE_SAMPLES = 8000
REFERENCE_SEED = 2**62 + 2023


def _psi_int(n):
    """Digamma of a positive integer of any size."""
    if n < 10**6:
        return ss.digamma(n)
    # psi(n) = ln n - 1/(2n) - 1/(12 n^2) + O(n^-4); the dropped tail is < 1e-25.
    return math.log(n) - 1 / (2 * n) - 1 / (12 * n * n)


def _singlet_count(sites, two_j):
    q = (sites - two_j) // 2
    return math.comb(sites, q) - (math.comb(sites, q - 1) if q else 0)


def singlet_reference(sites, cut):
    """The exact J=0 sector sum with every huge integer kept exact."""
    cut_a = min(cut, sites - cut)
    cut_b = sites - cut_a
    n0 = _singlet_count(sites, 0)
    psi_n0 = _psi_int(n0 + 1)
    terms = []
    for two_ja in range(cut_a % 2, cut_a + 1, 2):
        na = _singlet_count(cut_a, two_ja)
        nb = _singlet_count(cut_b, two_ja)
        terms.append(
            (na * nb / n0)
            * (psi_n0 - _psi_int(nb + 1) - (na - 1) / (2 * nb) + math.log(1.0 + two_ja))
        )
    return math.fsum(terms)


def closed_goldens():
    out = {}
    for row in WORKLOADS["closed_sweep"].rows:
        kind, sites, two_j, f = row
        cut = round(f * sites)
        try:
            value = closed_row(ss, row)
        except OverflowError:
            value = singlet_reference(sites, cut)
        else:
            if kind == "closed" and two_j == 0:
                ref = singlet_reference(sites, cut)
                assert abs(ref - value) <= 1e-12 * abs(value), (row, ref, value)
        out[row_key(row)] = value
    return out


def ed_goldens():
    wl = WORKLOADS["ed_l12"]
    out = {}
    for coupling in wl.couplings:
        records, means = wl.run(ss, coupling)
        entry = {"energies": energies_by_momentum(records), "j_counts": j_label_counts(records)}
        if coupling == 3.0:
            entry["means"] = {str(two_j): list(pair) for two_j, pair in means.items()}
        out[repr(coupling)] = entry
    return out


def mc_large_reference():
    wl = WORKLOADS["mc_large"]
    values = ss.ensemble_entropy_samples(
        wl.sites, wl.two_j, wl.cut, REFERENCE_SAMPLES, REFERENCE_SEED, ("full",),
        complex_coefficients=True, workers=None,
    )["full"]
    return {
        "mean": float(values.mean()),
        "sem": float(values.std(ddof=1) / math.sqrt(values.size)),
        "samples": REFERENCE_SAMPLES,
        "seed": REFERENCE_SEED,
    }


def main():
    goldens = {
        "closed_sweep": closed_goldens(),
        "ed_l12": ed_goldens(),
        "mc_large": {"reference": mc_large_reference()},
    }
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
