"""Mechanically verifying that the 2-symbol machine simulates the
4-symbol power-of-two machine.

Each 4-symbol cell is a block of two binary cells; the verifier runs
both machines in lockstep, advancing the big machine by the tabulated
step cost of each small step and checking state, head, and tape
coupling at every step.  Both machines share one tape, so the step
they take depends only on the small machine's state, the direction it
last moved and the cells within reach of its head: the verifier takes
such a step once, checking it, and replays it from a memo whenever it
meets the same state, direction and cells again.  It crosses the
passes over the digits in bulk.  A rewind pass writes every digit
back, so it is recorded in one step, a sweep.  A doubling pass
rewrites every digit and switches between two states, with a carry
pending or not, so one integer addition gives the state at every
digit and the whole pass is crossed at once.  The demo prints how
many steps it computed and replayed and how many sweeps and passes it
took.  It also demonstrates fault detection: corrupt one transition of
the big table and the coupling breaks within a few hundred steps.
"""

import time

from bblab import machines, simcheck

big = machines.builtin_m152()
small = machines.builtin_m54()

started = time.perf_counter()
t = simcheck.verify_simulation(big, small, simcheck.DEFAULT_ENCODING, 10_000)
print(f"{t.summary()}  ({time.perf_counter() - started:.2f}s)")
print(f"{t.window_runs} steps computed, {t.replays} replayed, "
      f"{t.sweeps} sweeps, {t.passes} passes")
print(f"time scale: f(5)={t.time_scale(5)}, f(16)={t.time_scale(16)}, "
      f"f(333)={t.time_scale(333)}")

# The scale factor settles near 2 big steps per small step:
for n in (10, 100, 1000, 10_000):
    print(f"  f({n}) / {n} = {t.time_scale(n) / n:.3f}")

# -- fault injection ---------------------------------------------------------

q = big.state_index("rewind_sim")
w, d, q2 = big.transition(q, 0)  # a cell is (write, delta, next state)
bad = big.with_cell(q, 0, (1 - w, d, q2))
out = simcheck.verify_simulation(bad, small, simcheck.DEFAULT_ENCODING, 1000)
print("\nwith one corrupted cell:")
print(f"  {out.summary()}")
