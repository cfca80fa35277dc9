"""Draw the pool of slow (3,2) tables that classify-3x2 picks from.

    python3 perfbench/find_slow_tables.py

Draws uniformly random complete 3-state 2-symbol tables from a fixed seed
and keeps the first POOL_SIZE that job._table_class calls "slow": still
running at the budget, no configuration recurring, the head within
job.SLOW_EXTENT cells.  Uses the benchmark's own stepper only, not bblab.
Writes them to perfbench/slow_tables.json.
"""

from __future__ import annotations

import json
import random

from job import _CELLS, SIZES, SLOW_POOL, _table_class

POOL_SIZE = 16
SEED = 0


def main() -> None:
    budget = SIZES["full"]["classify-3x2"]["budget"]
    rng = random.Random(SEED)
    pool, drawn = [], 0
    while len(pool) < POOL_SIZE:
        cells = [[rng.choice(_CELLS) for _ in range(2)] for _ in range(3)]
        drawn += 1
        if _table_class(cells, budget) == "slow":
            pool.append(cells)
    SLOW_POOL.write_text("[\n" + ",\n".join(json.dumps(c) for c in pool)
                         + "\n]\n")
    print(f"{POOL_SIZE} slow tables in {drawn} drawn")


if __name__ == "__main__":
    main()
