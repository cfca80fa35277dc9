"""Running Turing machines exactly: the built-in tables and the champion.

Demonstrates loading built-in machines, bounded runs and how each run's
compression ratio picks its stepper, checkpoint traces on the same
stepper, and the text format round-trip.
"""

import time

from bblab import machines, search, tm


def stepper(final):
    """Where a run went: tm.run and tm.run_trace pick their stepper once,
    after the first probe to their last step count on the pass
    stepper."""
    return ("handed to the flat stepper after its first probe"
            if final.handoffs else "kept on the pass stepper throughout")

# -- the 5-state 2-symbol busy-beaver champion ------------------------------

champion = machines.builtin_bb5_champion()
print("champion table:")
print(machines.serialize_machine(champion))

started = time.perf_counter()
final = tm.run(champion, 100_000_000)
elapsed = time.perf_counter() - started
print(f"halted: {final.halted} after {final.step_count:,} steps "
      f"({elapsed:.2f}s)")
print(f"tape extent: cells {final.tape.lo}..{final.tape.hi}")
print(f"compression: {final.compression:.1f} steps per macro step, "
      f"{stepper(final)}")

# -- the power-of-two machine: rewinds and doublings crossed in bulk --------

m54 = machines.builtin_m54()
s700 = search.checkpoint_steps(700)
started = time.perf_counter()
final = tm.run(m54, s700)
elapsed = time.perf_counter() - started
print(f"\npower-of-two machine at s_700: {final.step_count:,} steps "
      f"({elapsed:.3f}s)")
print(f"compression: {final.compression:.2f} steps per macro step, "
      f"{stepper(final)}")

# -- the power-of-two machine: snapshots along the way ----------------------

print("\npower-of-two machine, first few checkpoints:")
for snap in tm.run_trace(m54, [5, 9, 17, 333]):
    window = tm.window_str(m54, snap, snap.tape.lo, snap.tape.hi)
    print(f"  step {snap.step_count:>4}: state {m54.states[snap.state]:>6} "
          f"head {snap.head:>3}  tape {window}")

# -- the text format is round-trip exact ------------------------------------

text = machines.serialize_machine(m54)
assert machines.parse_machine(text, name="m54") == m54
print("\nserialize -> parse round-trip: exact")
