"""bblab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload paper-chain --seed 1 \\
        --seconds 42 --trace 0

Run from the root of a checkout.  Workloads: champion-run, paper-chain,
enumerate-3x2 and classify-3x2 (see perfbench/README.md for why each is
there, which layer metrics should move which end-to-end metric, and why
BENCHMARK.json gates only the last three).

Load is a closed loop with one caller: each repetition starts after the
previous one ends, in a fresh Python process (perfbench/job.py), so the
set-up a `bblab` user pays on every invocation is measured on every
repetition.  A new repetition starts while at least half of it is
expected to fit in `--seconds`, so runs end at `--seconds` on average;
there is always at least one.

A fixed calibration loop runs before the first repetition and after
each one; the gated job time, job_norm_s, is job_s scaled by it to a
nominal host speed (see CAL_NOMINAL_S).

With `--trace 0` every repetition is untraced and the last line carries
the end-to-end metrics, each the mean over the repetitions.  With
`--trace 1` untraced and traced repetitions alternate; the last line
carries the per-layer metrics of the traced ones (medians) and the
tracing overhead (traced minus untraced mean job time).

Every output is checked against perfbench/reference.json or against
arithmetic that shares no code with bblab.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only when every check passed.  Everything
measured, with the spans of the traced repetitions, is also written to
perfbench/out/.  `--smoke` runs tiny versions of the same jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from job import SIZES, WORKLOADS, classify_inputs  # noqa: E402
from tracing import ENUMERATION_SPACES  # noqa: E402

# No repetition starts after this many seconds, and none may run past
# RUN_LIMIT_S, so that a run always ends within three minutes.
LAST_START_S = 150
RUN_LIMIT_S = 170

END_TO_END = {"setup_s": "s", "job_norm_s": "s", "peak_rss_mb": "MB"}

# The host's speed swings up to 2x within minutes (perfbench/README.md,
# "Noise"), and wall time alone spread past its bound from one set of runs
# to the next.  So the gated job time is scaled to a nominal host speed:
# job_norm_s = job_s * CAL_NOMINAL_S / cal_s, where cal_s is the mean time
# of a fixed calibration loop run just before and just after the
# repetition.  The loop runs in this process, which never imports bblab,
# so no change to bblab can speed it up or slow it down.  The raw job_s is
# still printed in the report.
CAL_TABLE = [[[0, -1, 1], None], [[1, 1, 2], [1, -1, 1]],
             [[0, -1, 1], [1, 1, 2]]]
CAL_STEPS = 1000
CAL_ROUNDS = 1000
CAL_NOMINAL_S = 0.6

# Printed in the report, not on the last line: each is either a rate over
# the workload's fixed amount of work (so the inverse of job_s) or a count
# the checks already require to be zero.
REPORTED = {"steps_per_s": "1/s", "machines_per_s": "1/s",
            "classify_p50_ms": "ms", "classify_p99_ms": "ms",
            "undecided": "count"}

PER_LAYER = [
    "tm.run.s", "tm.run.steps_per_s", "tm.run_trace.s",
    "tm.run_trace.snapshots",
    "ternary.scan_erdos.s", "ternary.scan_erdos.exponents_per_s",
    "ternary.scan_erdos.digit_ops",
    "simcheck.verify_simulation.s",
    "simcheck.verify_simulation.small_steps_per_s",
    "simcheck.verify_simulation.big_steps",
    "search.verify_checkpoints.s", "search.verify_checkpoints.steps_per_s",
    "fst.double_reverse_ternary.s", "fst.double_reverse_ternary.digits_per_s",
    *(f"search.enumerate_and_classify.{space}.s"
      for space in ENUMERATION_SPACES),
    "search.enumerate_and_classify.self_s",
    *(f"search.{decider}.{part}"
      for decider in ("decide_escape", "decide_translated_cycler",
                      "decide_regular_closure")
      for part in ("calls", "decided", "decided_ratio", "s")),
    "search.classify.s", "search.classify.self_s",
    "search.classify.p50_ms", "search.classify.p99_ms",
    "search.revalidate_certificate.calls", "search.revalidate_certificate.ok",
    "search.revalidate_certificate.s",
    "machines.builtin.s", "machines.serialize_machine.s",
    "cli.main.self_s",
    "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def calibrate() -> float:
    """Seconds for CAL_ROUNDS runs of CAL_STEPS steps of CAL_TABLE on a
    dict tape, each keeping the signature of every configuration in a set
    the way an exact-cycle check does: the same mix of interpreter
    dispatch, allocation and hashing as the jobs.  CAL_TABLE is the first
    table of slow_tables.json, a bouncer whose tape stays under 64 cells."""
    start = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        tape, head, state, seen = {}, 0, 0, set()
        for _ in range(CAL_STEPS):
            cell = CAL_TABLE[state][tape.get(head, 0)]
            tape[head] = cell[0]
            head += cell[1]
            state = cell[2]
            seen.add((state, head, tuple(tape.values())))
    return time.perf_counter() - start


def run_repetition(spec: dict, deadline: float) -> dict:
    """One repetition in a fresh interpreter; its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py")], input=json.dumps(spec),
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"repetition {spec['rep']} ran past the "
                             f"{RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"repetition {spec['rep']} exited with "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = spec["trace"]
    return result


def measure(workload: str, size: str, inputs, reference: dict,
            seconds: int, trace: bool) -> list[dict]:
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reps: list[dict] = []
    cal = [calibrate()]
    while True:
        for traced in modes:
            rep = run_repetition(
                {"workload": workload, "size": SIZES[size][workload],
                 "inputs": inputs, "reference": reference,
                 "trace": traced, "rep": len(reps)}, deadline)
            cal.append(calibrate())
            rep["cal_s"] = (cal[-2] + cal[-1]) / 2
            rep["job_norm_s"] = rep["job_s"] * CAL_NOMINAL_S / rep["cal_s"]
            reps.append(rep)
        elapsed = time.perf_counter() - start
        rounds = len(reps) // len(modes)
        # another round while at least half of it is expected to fit
        if (elapsed * (rounds + 0.5) / rounds > seconds
                or elapsed > LAST_START_S):
            return reps


def summarize(reps: list[dict]) -> dict:
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    # End-to-end figures are means over the repetitions.  On a shared host
    # the speed switches between levels up to 2x apart; the median of a
    # few repetitions jumps between those levels, the mean moves smoothly.
    def mean(key, of=untraced):
        return statistics.fmean([r[key] for r in of])

    jobs = [r["job_s"] for r in untraced]
    summary = {
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "end_to_end": {key: mean(key) for key in END_TO_END},
        "job_s": statistics.fmean(jobs),
        "cal_s": mean("cal_s"),
        "job_s_quartiles": _quartiles(jobs),
        "job_s_median": statistics.median(jobs),
        "reported": {
            key: statistics.median([r["extra"][key] for r in untraced
                                    if key in r["extra"]])
            for key in REPORTED if any(key in r["extra"] for r in untraced)},
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": [f for r in reps for f in r["failures"]][:20],
    }
    if traced:
        layers = {name: statistics.median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = mean("job_s", traced) - summary["job_s"]
        summary["layers"] = layers
    return summary


def report(args, env: dict, summary: dict) -> None:
    e2e = summary["end_to_end"]
    q1, q3 = summary["job_s_quartiles"]
    n = summary["repetitions"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"size {'smoke' if args.smoke else 'full'}, {n} untraced and "
          f"{summary['traced_repetitions']} traced repetitions, closed loop "
          "with one caller, one fresh process per repetition")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"setup_s        {e2e['setup_s']:.4f} s  (mean of {n})")
    print(f"job_norm_s     {e2e['job_norm_s']:.4f} s  (mean of {n}; "
          f"calibration loop {summary['cal_s']:.4f} s, nominal "
          f"{CAL_NOMINAL_S} s)")
    print(f"job_s          {summary['job_s']:.4f} s  (mean of {n}; median "
          f"{summary['job_s_median']:.4f}, q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB")
    for key, value in summary["reported"].items():
        print(f"{key:<14} {value:.6g} {REPORTED[key]}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"ops_failed     {failed}/{attempted} = {failed / attempted:.4g}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    for name, value in summary.get("layers", {}).items():
        print(f"  {name:<48} {value:.6g} {layer_unit(name)}")


def environment(first_rep: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": first_rep["numpy"],
        "numba_installed": first_rep["numba_installed"],
        "tm._HAVE_NUMBA": first_rep["tm_have_numba"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit() or "unknown (not a git checkout)",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None, reference: dict | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bblab" / "__init__.py").is_file():
        print(f"error: no bblab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    inputs = None
    if args.workload == "classify-3x2":
        params = SIZES[size]["classify-3x2"]
        inputs = classify_inputs(args.seed, params["tables"],
                                 params["budget"])
    try:
        reps = measure(args.workload, size, inputs,
                       reference[size][args.workload], args.seconds,
                       bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(reps[0])
    summary = summarize(reps)
    report(args, env, summary)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{size}.json")
    spans = [span for r in reps for span in r.pop("spans", [])]
    out_file.write_text(json.dumps(
        {"args": vars(args), "environment": env, "summary": summary,
         "repetitions": reps, "spans": spans}, indent=1))

    if args.trace:
        metrics = {name: summary["layers"][name] for name in PER_LAYER}
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        metrics, units = summary["end_to_end"], END_TO_END
    correct = summary["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
