"""Confirming tiny busy-beaver values by exhaustive classification.

Every machine in the space is either run to halting or proven
non-halting by one of four deciders (escape, cycler, translated cycler,
regular closure); a value counts as confirmed only when nothing is left
undecided.  Pass --stretch to also run the larger spaces: the (2,3)
space takes seconds and leaves one bouncer honestly undecided, and the
(4,2) space takes about a quarter of an hour and leaves 58 undecided.
"""

import sys
import time

from bblab import machines, search


def show(n, k, budget, reduced=True):
    started = time.perf_counter()
    s = search.enumerate_and_classify(n, k, budget, reduced=reduced)
    elapsed = time.perf_counter() - started
    verdict = "confirmed" if s.confirmed else \
        f"NOT confirmed ({s.counts['undecided']} undecided)"
    print(f"BB({n},{k}) candidate = {s.max_steps}  [{verdict}]  "
          f"{s.total:,} machines in {elapsed:.1f}s  {s.counts}")
    # regular-closure verdicts are counted under "escape"
    print(f"  {s.total / elapsed:,.0f} machines/s; the closure search "
          f"decided {s.closure_decided} of the {s.closure_searches} "
          "machines that outlasted the budget")
    if s.champions:
        print("  a champion:")
        for line in machines.serialize_machine(s.champions[0]).splitlines():
            print("   ", line)
    return s


show(1, 2, 10)
show(2, 2, 100)
# ground truth: the raw space (no canonical reduction) gives the same max
show(2, 2, 100, reduced=False)
show(3, 2, 1000)

if "--stretch" in sys.argv:
    show(2, 3, 100)
    show(4, 2, 200)
else:
    print("\n(--stretch adds the (2,3) and (4,2) spaces)")
