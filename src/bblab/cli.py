"""Command-line front end: run, scan, check-sim, enumerate.

Exit codes: 0 clean completion, 1 a sought-for anomaly was found (scan
counterexample, simulation mismatch, undecided machines), 2 input or
space errors.  `--format json` emits one well-formed JSON document with
stable field names; timing fields are explicitly labeled and are the
only non-deterministic output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from . import machines, search, simcheck, ternary, tm
from .errors import BBLabError, ParseError


def _load_machine(args) -> tm.MachineTable:
    if args.builtin:
        return machines.builtin(args.builtin)
    with open(args.file, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"byte 0x{data[exc.start]:02x} is not "
                                  "UTF-8") from None
    return machines.parse_machine(text, name=args.file)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _at_least(lo: int):
    """argparse type: an integer no smaller than `lo`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below {lo}")
        return value
    return parse


_natural = _at_least(0)


def _window(spec: str) -> tuple[int, int]:
    """argparse type for LO:HI with LO <= HI."""
    try:
        lo, hi = (int(x) for x in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{spec!r} is not LO:HI") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"{spec}: LO must be <= HI")
    return lo, hi


def _step_list(spec: str) -> list[int]:
    """argparse type for N,N,... step counts, returned sorted."""
    return sorted(_natural(x) for x in spec.split(","))


def cmd_run(args) -> int:
    m = _load_machine(args)
    lines = []
    payload = {"command": "run", "machine": m.name, "budget": args.budget}
    started = time.perf_counter()
    # one run: the checkpoints' snapshots and then the budget's
    snaps = (tm.run_trace(m, args.checkpoints + [args.budget])
             if args.checkpoints else [tm.run(m, args.budget)])
    run_seconds = time.perf_counter() - started
    final = snaps[-1]
    if args.checkpoints:
        payload["checkpoints"] = []
        for snap in snaps[:len(args.checkpoints)]:
            window = tm.window_str(m, snap, snap.tape.lo, snap.tape.hi)
            payload["checkpoints"].append({
                "step": snap.step_count, "state": m.states[snap.state],
                "head": snap.head, "tape": window, "halted": snap.halted})
            lines.append(f"step {snap.step_count}: "
                         f"state {m.states[snap.state]}, head {snap.head}, "
                         f"tape [{snap.tape.lo}..{snap.tape.hi}] = {window}")
    payload["outcome"] = "halted" if final.halted else "running"
    payload["steps"] = final.step_count
    if final.halted:
        lines.append(f"halted at {final.step_count}")
    else:
        lines.append(f"running after {final.step_count} steps")
    payload["state"] = m.states[final.state]
    payload["head"] = final.head
    if args.show_window:
        lo, hi = args.show_window
        window = " ".join(m.symbols[s] for s in tm.tape_window(final, lo, hi))
        payload["window"] = {"lo": lo, "hi": hi, "symbols": window}
        lines.append(window)
    payload["elapsed_seconds"] = time.perf_counter() - started
    payload["stats"] = {
        "steps_per_s": final.step_count / run_seconds if run_seconds else 0.0,
        "macro_steps": final.macro_steps, "compression": final.compression,
        "handoffs": final.handoffs}
    _emit(args, payload, lines)
    return 0


def cmd_scan(args) -> int:
    report = ternary.scan_erdos(args.max_n)
    payload = {"command": "scan", **report.to_dict(),
               "elapsed_seconds": report.elapsed_seconds}
    payload["stats"] = {"exponents_per_s": report.exponents_per_s,
                        "digit_ops": report.digit_ops,
                        "deepest_digit": report.deepest_digit}
    lines = [f"scanned exponents 0..{report.bound}",
             "digit-2-free exponents: "
             + " ".join(str(n) for n in report.free_exponents)]
    if report.counterexample is not None:
        lines.append(f"counterexample exponent: {report.counterexample}")
    lines.append(f"stats: {report.exponents_per_s:,.0f} exponents/s, "
                 f"{report.digit_ops:,} digit ops, deepest digit tested "
                 f"{report.deepest_digit}")
    _emit(args, payload, lines)
    return 1 if report.counterexample is not None else 0


def cmd_check_sim(args) -> int:
    big = machines.builtin_m152()
    small = machines.builtin_m54()
    started = time.perf_counter()
    transcript = simcheck.verify_simulation(big, small,
                                            simcheck.DEFAULT_ENCODING,
                                            args.steps)
    payload = {
        "command": "check-sim", "steps": args.steps,
        "status": transcript.status, "verified_to": transcript.n_verified,
        "elapsed_seconds": time.perf_counter() - started,
    }
    if transcript.ok:
        f_n = transcript.time_scale(transcript.n_verified)
        payload["f"] = f_n
        lines = [f"verified, f({transcript.n_verified})={f_n}"]
    else:
        payload["mismatch"] = transcript.mismatch
        lines = [transcript.summary()]
    payload["stats"] = {"window_runs": transcript.window_runs,
                        "replays": transcript.replays,
                        "sweeps": transcript.sweeps,
                        "small_steps_per_s": transcript.small_steps_per_s,
                        "compression": transcript.compression,
                        "passes": transcript.passes}
    lines.append(f"stats: {transcript.window_runs:,} steps computed, "
                 f"{transcript.replays:,} replays, {transcript.sweeps:,} "
                 f"sweeps, {transcript.passes:,} passes, "
                 f"{transcript.small_steps_per_s:,.0f} small steps/s")
    _emit(args, payload, lines)
    return 0 if transcript.ok else 1


def cmd_enumerate(args) -> int:
    # opened before the enumeration, so that a bad path fails at once
    with (open(args.undecided_out, "w") if args.undecided_out
          else contextlib.nullcontext()) as out:
        return _enumerate(args, out)


def _enumerate(args, out) -> int:
    started = time.perf_counter()
    summary = search.enumerate_and_classify(args.n, args.k, args.budget,
                                            reduced=not args.raw)
    elapsed = time.perf_counter() - started
    rate = summary.total / elapsed if elapsed else 0.0
    payload = {"command": "enumerate", **summary.to_dict(),
               "elapsed_seconds": elapsed}
    payload["stats"] = {
        "machines_per_s": rate,
        "decider_pass_runs": summary.decider_pass_runs,
        "decider_pass_steps": summary.decider_pass_steps,
        "closure_searches": summary.closure_searches,
        "closure_decided": summary.closure_decided,
        "decider_pass_seconds": summary.decider_pass_seconds,
        "closure_seconds": summary.closure_seconds}
    lines = [
        f"space: {args.n} states x {args.k} symbols, budget {args.budget}, "
        + ("raw" if args.raw else "reduced"),
        f"classified: {summary.total}",
        f"counts: {summary.counts}",
        f"BB candidate: {summary.max_steps}, "
        f"undecided: {summary.counts['undecided']}",
        f"stats: {rate:,.0f} machines/s, decider pass "
        f"{summary.decider_pass_runs:,} runs of "
        f"{summary.decider_pass_steps:,} steps in all, closure "
        f"{summary.closure_decided:,} decided of "
        f"{summary.closure_searches:,} searches; "
        f"{summary.decider_pass_seconds:.2f} s in the decider pass, "
        f"{summary.closure_seconds:.2f} s in closure searches",
        "confirmed" if summary.confirmed else "NOT confirmed "
        "(undecided machines remain)",
    ]
    if out is not None:  # written even when empty, never left stale
        for m in summary.undecided:
            out.write(machines.serialize_machine(m) + "\n")
        lines.append(f"{len(summary.undecided)} undecided machines written "
                     f"to {args.undecided_out}")
        payload["undecided_path"] = args.undecided_out
    _emit(args, payload, lines)
    return 0 if summary.confirmed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bblab",
        description="busy-beaver laboratory: run, scan, verify, enumerate")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a machine for a bounded number "
                                       "of steps")
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=machines.BUILTIN_NAMES)
    group.add_argument("--file", help="machine file in the canonical format")
    p_run.add_argument("--budget", type=_natural, required=True)
    p_run.add_argument("--show-window", metavar="LO:HI", type=_window,
                       help="print tape cells LO..HI after the run")
    p_run.add_argument("--checkpoints", metavar="N,N,...", type=_step_list,
                       help="snapshot the configuration at these steps "
                            "(each at most --budget)")
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("scan", help="scan powers of two for missing "
                                         "ternary digit 2")
    p_scan.add_argument("--max-n", type=_natural, required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_sim = sub.add_parser("check-sim", help="verify the 2-symbol machine "
                                             "tracks the 4-symbol machine")
    p_sim.add_argument("--steps", type=_natural, required=True,
                       help="simulated (4-symbol) steps to verify")
    p_sim.set_defaults(func=cmd_check_sim)

    p_enum = sub.add_parser("enumerate", help="classify a whole machine "
                                              "space and report the max")
    p_enum.add_argument("-n", type=_at_least(1), required=True,
                        help="state count")
    p_enum.add_argument("-k", type=_at_least(2), required=True,
                        help="symbol count")
    p_enum.add_argument("--budget", type=_natural, required=True)
    p_enum.add_argument("--raw", action="store_true",
                        help="enumerate the full raw space instead of the "
                             "canonical subset")
    p_enum.add_argument("--undecided-out", metavar="PATH",
                        help="write the undecided machines to this "
                             "file, empty if none remain")
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "run" and args.checkpoints
            and args.checkpoints[-1] > args.budget):
        parser.error(f"checkpoint {args.checkpoints[-1]} exceeds "
                     f"--budget {args.budget}")
    try:
        return args.func(args)
    except (BBLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
