"""Record the champion-run reference from a plain `tm.step` loop.

    PYTHONPATH=src python3 perfbench/record_reference.py

Steps the bb5 champion one transition at a time for each size's budget
and writes the final state, head, touched extent and a digest of the
tape over that extent into perfbench/reference.json.  The other
references in that file are the paper's values and are kept as they are.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from bblab import machines, tm

from job import SIZES

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def champion_reference(budget: int) -> dict:
    m = machines.builtin_bb5_champion()
    c = tm.initial_configuration(m)
    while c.step_count < budget and not c.halted:
        tm.step(m, c)
    lo, hi = c.tape.lo, c.tape.hi
    symbols = " ".join(m.symbols[s] for s in c.tape.window(lo, hi))
    return {"state": m.states[c.state], "head": c.head, "lo": lo, "hi": hi,
            "tape_sha256": hashlib.sha256(symbols.encode()).hexdigest()}


def main() -> None:
    reference = json.loads(REFERENCE.read_text())
    for size, workloads in SIZES.items():
        budget = workloads["champion-run"]["budget"]
        reference[size]["champion-run"] = champion_reference(budget)
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
