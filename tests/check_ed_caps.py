"""Invariants of exact diagonalization at the size caps, outside the test suite.

For each chain (by default spin-1/2 and spin-1 at their `spectra.MAX_SITES`
caps) this builds the chain cold at the integrable coupling and solves it
warm at a chaotic one, with the half-chain entropies, and checks each run:
per 2J the records number `multiplicity(species, L, 2J)`, the blocks n and
L - n counted twice (only n = 0 .. L/2 is solved), and no record is flagged.
It prints the wall time of each run and the peak RSS of the process after
it: the cold figure is the cold build's own peak, and the warm one the
overall peak, since the peak only rises.

    PYTHONPATH=src python tests/check_ed_caps.py            # both caps
    PYTHONPATH=src python tests/check_ed_caps.py half:14    # one chain

The name keeps pytest from collecting it: at the caps a chain takes minutes
and gigabytes.  The exit status is the number of failed checks.
"""

import resource
import sys
import time
from collections import Counter

from spinsectors import ChainSpec, SpinSpecies, diagonalize_and_resolve, multiplicity
from spinsectors.spectra import MAX_SITES

# (integrable, chaotic) coupling of each spin
COUPLINGS = {1: (0.0, 3.0), 2: (1.0, 0.0)}


def check_chain(species, sites):
    failures = 0
    for label, coupling in zip(("cold", "warm"), COUPLINGS[species.two_s]):
        t0 = time.perf_counter()
        records = diagonalize_and_resolve(ChainSpec(species, sites, coupling))
        seconds = time.perf_counter() - t0
        counts = Counter()
        for r in records:
            counts[r.two_j] += 2 if r.complex_sector else 1
        wrong = {tj: n for tj, n in counts.items() if n != multiplicity(species, sites, tj)}
        flagged = sum(r.flagged for r in records)
        ok = not wrong and flagged == 0
        failures += not ok
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{'ok  ' if ok else 'FAIL'} spin {species.name} L={sites} coupling={coupling} ({label}): "
              f"{seconds:.1f} s, {len(records)} records, {flagged} flagged, peak RSS so far {peak_mb:.0f} MB"
              + (f", counts off the multiplicity at 2J={sorted(wrong)}" if wrong else ""))
    return failures


def main(argv):
    chains = [arg.split(":") for arg in argv] or [("half", MAX_SITES[1]), ("one", MAX_SITES[2])]
    return sum(check_chain(SpinSpecies.from_name(name), int(sites)) for name, sites in chains)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
