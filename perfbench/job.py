"""One repetition of a benchmark workload, run in a fresh Python process.

`run.py` starts this file once per repetition and writes a JSON spec on
its standard input: the workload, its sizes and inputs, the expected
outputs, and whether to trace.  The process imports bblab (timed as
set-up), runs the workload's job (timed), checks every output against the
expected values, and prints one JSON object as the last line of its
standard output.  Importing this module does not import bblab, so
`run.py` can use the input generator below without paying for it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import (Tracer, layer_metrics, percentiles,  # noqa: E402
                     space_label)

# Sizes of each workload.  "full" is what the benchmark measures; "smoke"
# is a tiny version of the same jobs for the benchmark's own tests.
SIZES = {
    "full": {
        # pure-Python stepping runs at 0.6 to 1 us/step on a 2-core Xeon,
        # so this is a job of four to six seconds: long enough to average
        # over the second-scale speed swings of a shared host
        "champion-run": {"budget": 6_000_000},
        # the acceptance-suite sizes of the paper's chain
        "paper-chain": {"scan_max_n": 10_000, "checkpoints_n": 1000,
                        "sim_steps": [5, 16, 333, 1_000_000],
                        "run_n": 700, "trace_n": 100, "fst_n": 100},
        "enumerate-3x2": {"budget": 1000,
                          "spaces": [[3, 2, False], [2, 2, False],
                                     [2, 2, True]]},
        # at least 1000 tables, so that ten latencies lie beyond p99
        "classify-3x2": {"tables": 1000, "budget": 1000},
    },
    "smoke": {
        "champion-run": {"budget": 20_000},
        "paper-chain": {"scan_max_n": 100, "checkpoints_n": 20,
                        "sim_steps": [5, 16, 333, 1000],
                        "run_n": 30, "trace_n": 10, "fst_n": 10},
        "enumerate-3x2": {"budget": 1000,
                          "spaces": [[2, 2, False], [2, 2, True]]},
        "classify-3x2": {"tables": 20, "budget": 1000},
    },
}


# ---------------------------------------------------------------------------
# reference arithmetic that shares no code with bblab


def ternary_lsf(value: int) -> str:
    """Base-3 digits of `value`, least-significant first."""
    digits = []
    while True:
        value, r = divmod(value, 3)
        digits.append(str(r))
        if value == 0:
            return "".join(digits)


def counter_symbol(n: int) -> str:
    """The power-of-two machine's count of digit-2-free powers 2^k with
    1 < k <= n (those are 2^2 and 2^8), as the symbol it keeps on tape."""
    return "0" if n <= 1 else "1" if n <= 7 else "2"


def checkpoint_steps(n_max: int) -> list[int]:
    """Steps s_0..s_n_max at which the power-of-two machine rests in
    `rewind` holding 2^n: 5 + 2 * (counter bumps) + sum over k = 1..n of
    2 * (ternary length of 2^k + 1)."""
    steps, total, length, power = [], 0, 1, 1
    for n in range(n_max + 1):
        if n:
            power *= 2
            while 3 ** length <= power:
                length += 1
            total += 2 * (length + 1)
        steps.append(5 + 2 * int(counter_symbol(n)) + total)
    return steps


# ---------------------------------------------------------------------------
# classify-3x2 inputs

# Shares of random complete (3,2) tables, measured over 100,000 of them:
# halting unreachable in the state graph, halting within 1000 steps from
# the blank tape, and the rest (still running after 1000 steps).
CLASS_SHARES = {"escape": 0.6755, "halts": 0.1633}
_CELLS = [None] + [[w, d, q] for w in range(2) for d in (-1, 1)
                   for q in range(3)]

# A table still running at the budget is "slow" when its configuration
# never recurred and its head stayed within SLOW_EXTENT cells: a bouncer
# or counter rather than a cycler or translated cycler.  classify sends
# these on to the closure search, whose first call builds a DFA cache of
# about 21 MB.  About 1 random table in 8,800 is slow, so only about 11%
# of 1000-table draws would hold one, and peak memory would jump between
# seeds; every draw takes SLOW_TABLES of them from the pool that
# find_slow_tables.py drew once instead.
SLOW_EXTENT = 64
SLOW_TABLES = 2
SLOW_POOL = Path(__file__).resolve().parent / "slow_tables.json"


def _halt_reachable(cells) -> bool:
    """Whether a Halt cell is reachable from state 0 in the state graph."""
    reachable, stack = {0}, [0]
    while stack:
        for cell in cells[stack.pop()]:
            if cell is None:
                return True
            if cell[2] not in reachable:
                reachable.add(cell[2])
                stack.append(cell[2])
    return False


def _recurs(cells, budget: int) -> bool:
    """Whether a configuration of the run from the blank tape recurs
    exactly within `budget` steps; the run must not halt by then."""
    tape, head, state, seen = {}, 0, 0, set()
    for _ in range(budget + 1):
        config = (state, head, frozenset(p for p, s in tape.items() if s))
        if config in seen:
            return True
        seen.add(config)
        cell = cells[state][tape.get(head, 0)]
        tape[head] = cell[0]
        head += cell[1]
        state = cell[2]
    return False


def _table_class(cells, budget: int) -> str:
    if not _halt_reachable(cells):
        return "escape"
    tape, head, state = {}, 0, 0
    for _ in range(budget):
        cell = cells[state][tape.get(head, 0)]
        if cell is None:
            return "halts"
        tape[head] = cell[0]
        head += cell[1]
        state = cell[2]
    if max(tape) - min(tape) < SLOW_EXTENT and not _recurs(cells, budget):
        return "slow"
    return "runs"


def classify_inputs(seed: int, n_tables: int, budget: int) -> list[dict]:
    """`n_tables` random complete 3-state 2-symbol tables (each cell Halt
    or one of the 12 transitions), drawn from `seed`.

    The draw is stratified: tables are taken in seed order until each
    class of _table_class holds its expected share.  Nearly all of
    classify's time goes to the tables that are still running at the
    budget, so fixing their count keeps the job's size the same from seed
    to seed while the tables themselves still differ.  Slow tables come
    from the pool instead, SLOW_TABLES of them at seeded places, so that
    every draw sends the same number of tables past the cyclers.
    """
    rng = random.Random(seed)
    quota = {name: round(n_tables * share)
             for name, share in CLASS_SHARES.items()}
    quota["slow"] = 0
    quota["runs"] = n_tables - SLOW_TABLES - sum(quota.values())
    tables = []
    while len(tables) < n_tables - SLOW_TABLES:
        cells = [[rng.choice(_CELLS) for _ in range(2)] for _ in range(3)]
        kind = _table_class(cells, budget)
        if quota[kind]:
            quota[kind] -= 1
            tables.append({"cells": cells, "class": kind})
    pool = json.loads(SLOW_POOL.read_text())
    for cells in rng.sample(pool, SLOW_TABLES):
        tables.insert(rng.randrange(len(tables) + 1),
                      {"cells": cells, "class": "slow"})
    return tables


# ---------------------------------------------------------------------------
# the jobs


class Checks:
    """Counts output checks; keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, actual, expected) -> None:
        self.attempted += 1
        if actual != expected:
            self.failures.append(
                f"{what}: expected {expected!r}, got {actual!r}")


class Clock:
    """Times the job.  In a traced repetition the job is also a span, and
    tracing ends with it, so the checks that follow leave no spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = None

    def __enter__(self):
        if self.tracer:
            self._span = self.tracer.begin("job")
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        if self.tracer:
            self.tracer.end(self._span)
            self.tracer.uninstall()
        return False


def cli(bblab, *argv) -> tuple[int, str]:
    """`bblab --format json ARGV` in-process: exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bblab.cli.main(["--format", "json", *argv])
    return code, out.getvalue()


def champion_run(bblab, size, inputs, ref, clock, checks):
    budget = size["budget"]
    with clock:
        code, text = cli(bblab, "run", "--builtin", "bb5-champion",
                         "--budget", str(budget),
                         f"--show-window={ref['lo']}:{ref['hi']}")
    checks.expect("exit code", code, 0)
    out = json.loads(text)
    checks.expect("outcome", out["outcome"], "running")
    checks.expect("steps", out["steps"], budget)
    checks.expect("state", out["state"], ref["state"])
    checks.expect("head", out["head"], ref["head"])
    tape = hashlib.sha256(out["window"]["symbols"].encode()).hexdigest()
    checks.expect("tape sha256", tape, ref["tape_sha256"])
    return {"steps_per_s": budget / clock.seconds}


def paper_chain(bblab, size, inputs, ref, clock, checks):
    m54 = bblab.machines.builtin_m54()
    steps = checkpoint_steps(max(size["run_n"], size["trace_n"],
                                 size["checkpoints_n"]))
    run_n, trace_n = size["run_n"], size["trace_n"]
    run_digits = ternary_lsf(2 ** run_n)
    words = [ternary_lsf(2 ** n) + "0" for n in range(size["fst_n"] + 1)]
    with clock:
        scan = cli(bblab, "scan", "--max-n", str(size["scan_max_n"]))
        try:
            report = bblab.search.verify_checkpoints(m54,
                                                     size["checkpoints_n"])
        except bblab.errors.CheckpointMismatch as exc:
            report = exc
        sims = [cli(bblab, "check-sim", "--steps", str(n))
                for n in size["sim_steps"]]
        run = cli(bblab, "run", "--builtin", "m54",
                  "--budget", str(steps[run_n]),
                  f"--show-window=-2:{len(run_digits)}")
        trace = cli(bblab, "run", "--builtin", "m54",
                    "--budget", str(steps[trace_n]), "--checkpoints",
                    ",".join(str(s) for s in steps[:trace_n + 1]))
        doubled = [bblab.fst.double_reverse_ternary(w) for w in words]

    code, text = scan
    checks.expect("scan exit code", code, 0)
    checks.expect("scan free exponents", json.loads(text)["free_exponents"],
                  ref["free_exponents"])
    n = size["checkpoints_n"]
    checks.expect(f"verify_checkpoints({n})",
                  (getattr(report, "checked", report),
                   getattr(report, "final_step", None)),
                  (n + 1, steps[n]))
    for n, (code, text) in zip(size["sim_steps"], sims):
        out = json.loads(text)
        checks.expect(f"check-sim {n}",
                      (code, out["status"], out["verified_to"], out.get("f")),
                      (0, "verified", n, ref["f"][str(n)]))
    code, text = run
    out = json.loads(text)
    checks.expect(f"m54 at s_{run_n}",
                  (code, out["outcome"], out["steps"], out["state"],
                   out["head"], out["window"]["symbols"].replace(" ", "")),
                  (0, "running", steps[run_n], "rewind", -1,
                   f"{counter_symbol(run_n)}#{run_digits}#"))
    code, text = trace
    checks.expect("run_trace exit code", code, 0)
    snaps = json.loads(text)["checkpoints"]
    checks.expect("run_trace snapshots", len(snaps), trace_n + 1)
    powers = bblab.ternary.powers_of_two(trace_n)
    for (n, power), snap in zip(powers, snaps):
        digits = ternary_lsf(2 ** n)
        checks.expect(f"snapshot s_{n}",
                      (snap["step"], snap["state"], snap["head"],
                       snap["tape"].strip("#")),
                      (steps[n], "rewind", -1,
                       f"{counter_symbol(n)}#{digits}"))
        checks.expect(f"powers_of_two {n}", power.lsf_str(), digits)
    for n, (word, out) in enumerate(zip(words, doubled)):
        oracle = bblab.fst.oracle_double([int(c) for c in word])
        checks.expect(f"double 2^{n}", out,
                      ternary_lsf(2 ** (n + 1)).ljust(len(word), "0"))
        checks.expect(f"oracle 2^{n}", "".join(map(str, oracle)),
                      ternary_lsf(2 ** (n + 1)))
    return {}


def enumerate_3x2(bblab, size, inputs, ref, clock, checks):
    with clock:
        runs = [cli(bblab, "enumerate", "-n", str(n), "-k", str(k),
                    "--budget", str(size["budget"]), *(["--raw"] if raw
                                                       else []))
                for n, k, raw in size["spaces"]]
    machines = undecided = 0
    for (n, k, raw), (code, text) in zip(size["spaces"], runs):
        label = space_label(n, k, raw)
        out = json.loads(text)
        machines += out["total"]
        undecided += out["counts"]["undecided"]
        checks.expect(f"{label} exit code", code, 0)
        checks.expect(f"{label} confirmed", out["confirmed"], True)
        checks.expect(f"{label} undecided", out["counts"]["undecided"], 0)
        for key, expected in ref[label].items():
            actual = out["counts"]["halts"] if key == "halts" else out[key]
            checks.expect(f"{label} {key}", actual, expected)
    return {"machines_per_s": machines / clock.seconds,
            "undecided": undecided}


def classify_3x2(bblab, size, inputs, ref, clock, checks):
    tm, search = bblab.tm, bblab.search
    moves = {-1: tm.L, 1: tm.R}
    tables = [
        tm.MachineTable(
            name=f"random{i}", symbols=("0", "1"), blank=0,
            states=("A", "B", "C"), init=0,
            table=tuple(tuple(tm.HALT if c is None else
                              tm.Transition(c[0], moves[c[1]], c[2])
                              for c in row) for row in entry["cells"]))
        for i, entry in enumerate(inputs)]
    budget = size["budget"]
    latencies = []
    with clock:
        verdicts = []
        for m in tables:
            start = time.perf_counter()
            verdicts.append(search.classify(m, budget))
            latencies.append(time.perf_counter() - start)
        revalidated = [search.revalidate_certificate(m, v.certificate)
                       for m, v in zip(tables, verdicts)
                       if v.status == "nonhalt"]

    for i, (entry, v) in enumerate(zip(inputs, verdicts)):
        if entry["class"] == "escape":
            checks.expect(f"table {i} verdict", (v.status, v.decider),
                          ("nonhalt", "escape"))
        elif entry["class"] == "halts":
            checks.expect(f"table {i} verdict", v.status, "halts")
            # re-derived from plain execution, outside the timed region
            out = tm.run(tables[i], budget)
            checks.expect(f"table {i} steps", (out.halted, out.step_count),
                          (True, v.steps))
        else:
            checks.expect(f"table {i} does not halt", v.status != "halts",
                          True)
    for i, ok in enumerate(revalidated):
        checks.expect(f"certificate {i} revalidates", ok, True)
    undecided = sum(v.status == "undecided" for v in verdicts)
    checks.expect("undecided", undecided, ref["undecided"])
    p50, p99 = percentiles([s * 1e3 for s in latencies])
    return {"machines_per_s": len(tables) / clock.seconds,
            "classify_p50_ms": p50, "classify_p99_ms": p99,
            "undecided": undecided}


WORKLOADS = {
    "champion-run": champion_run,
    "paper-chain": paper_chain,
    "enumerate-3x2": enumerate_3x2,
    "classify-3x2": classify_3x2,
}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import bblab.cli
    tracer = Tracer(spec["rep"]) if spec["trace"] else None
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        if tracer:
            tracer.install(bblab)
        for name in bblab.machines.BUILTIN_NAMES:
            bblab.machines.builtin(name)
    setup_s = time.perf_counter() - start

    clock, checks = Clock(tracer), Checks()
    try:
        extra = WORKLOADS[spec["workload"]](
            bblab, spec["size"], spec["inputs"], spec["reference"], clock,
            checks)
    except Exception as exc:
        if clock.seconds is None:
            raise  # the job itself failed, so nothing was measured
        # output too malformed to check counts as one failed check
        checks.expect("checking the output", repr(exc), "no exception")
        extra = {}
    result = {
        "setup_s": setup_s,
        "job_s": clock.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:20],
        "extra": extra,
        "numpy": sys.modules["numpy"].__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "tm_have_numba": getattr(bblab.tm, "_HAVE_NUMBA", None),
    }
    if tracer:
        spans = tracer.finish()
        result["layers"] = layer_metrics(spans)
        result["spans"] = spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
