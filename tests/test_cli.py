"""Command-line interface: exit codes, text output, JSON output."""

import hashlib
import json
import re

import pytest

from bblab import cli, machines, search, ternary, tm
from bblab.tm import R, Transition


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_run_builtin_reports_running(capsys):
    code, out, _ = run_cli(capsys, "run", "--builtin", "bb5-champion",
                           "--budget", "100")
    assert code == 0
    assert "running after 100 steps" in out


def test_run_builtin_to_its_halt(capsys):
    argv = ("run", "--builtin", "bb5-champion", "--budget", "100000000")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "halted at 47176870\n"
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    payload = json.loads(out)
    assert (payload["outcome"], payload["steps"]) == ("halted", 47176870)
    # long runs of equal symbols: self-loop sweeps compress the run
    assert payload["stats"]["compression"] > 100


def test_run_json_stats_follow_the_existing_keys(capsys):
    """m54's rewinds and doublings are crossed in bulk: its compression
    ratio stays above 2, so the run stays on its pass stepper."""
    budget = search.checkpoint_steps(100)
    code, out, _ = run_cli(capsys, "--format", "json", "run", "--builtin",
                           "m54", "--budget", str(budget),
                           "--show-window=-2:3")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "machine", "budget", "outcome",
                             "steps", "state", "head", "window",
                             "elapsed_seconds", "stats"]
    assert (payload["outcome"], payload["steps"], payload["state"],
            payload["head"]) == ("running", budget, "rewind", -1)
    stats = payload["stats"]
    assert list(stats) == ["steps_per_s", "macro_steps", "compression",
                           "handoffs"]
    assert stats["steps_per_s"] > 0
    assert 0 < stats["macro_steps"] <= budget
    assert stats["compression"] == budget / stats["macro_steps"]
    assert stats["compression"] > 2
    assert stats["handoffs"] == 0


def test_run_with_window(capsys):
    code, out, _ = run_cli(capsys, "run", "--builtin", "m54",
                           "--budget", "9", "--show-window=-2:2")
    assert code == 0
    assert "0 # 2 # #" in out


def test_run_with_checkpoints(capsys):
    code, out, _ = run_cli(capsys, "run", "--builtin", "m54",
                           "--budget", "400", "--checkpoints", "5,9")
    assert code == 0
    assert "step 5:" in out and "step 9:" in out
    assert "state rewind" in out


def test_run_with_checkpoints_runs_to_the_budget(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "run", "--builtin",
                           "m54", "--budget", "400", "--checkpoints", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"] == 400
    assert payload["outcome"] == "running"
    assert [c["step"] for c in payload["checkpoints"]] == [5]


def test_run_json_is_well_formed(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "run", "--builtin",
                           "m54", "--budget", "333", "--checkpoints", "333")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "run"
    assert payload["outcome"] == "running"
    assert payload["checkpoints"][0]["step"] == 333
    assert payload["checkpoints"][0]["state"] == "rewind"
    assert isinstance(payload["elapsed_seconds"], float)


# BB(2)'s champion, which halts at step 6, before checkpoint 9 below
_BB2 = """symbols: 0 1
blank: 0
states: A B
init: A
A 0 -> 1 R B
A 1 -> 1 L B
B 0 -> 1 L A
B 1 -> halt
"""


@pytest.mark.parametrize("machine, budget, checkpoints, window, entries", [
    (("--builtin", "m54"), 2000, "16,333", "-2:8",
     "ac21be6eeae35e3a81d493deedb0427b607cfd4adfb1c1fc0dea705170678e91"),
    (("--builtin", "bb5-champion"), 100_000_000, "1000000,47176869", "-5:5",
     "7667bb1b86e991b07a346fa7e7019d709099736bf94a4389212ca9d78e72ee2d"),
    (("--file", "bb2.tm"), 20, "2,5,9", "-2:2",
     "4e7344382efa513de0a7169cd5b7193c9a66e2707c7cd3f67a41e67413abd5ad"),
], ids=["m54", "bb5-champion", "bb2-halts-before-its-last-checkpoint"])
def test_run_with_checkpoints_runs_once_and_ends_as_run_does(
        capsys, monkeypatch, tmp_path, machine, budget, checkpoints, window,
        entries):
    """`run --checkpoints C --budget B` makes one run, which ends as `run
    --budget B` does: the same outcome, steps, state, head, window and
    hand-offs.  Its checkpoint entries are pinned by the sha256 of their
    JSON as a trace on the flat-list stepper printed them."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bb2.tm").write_text(_BB2)
    calls = []
    for name in ("run", "run_trace"):
        def counted(*args, _f=getattr(tm, name)):
            calls.append(_f.__name__)
            return _f(*args)
        monkeypatch.setattr(tm, name, counted)
    argv = ["--format", "json", "run", *machine, "--budget", str(budget),
            f"--show-window={window}"]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, calls) == (0, ["run"])
    alone = json.loads(out)
    calls.clear()
    code, out, _ = run_cli(capsys, *argv, "--checkpoints", checkpoints)
    assert (code, calls) == (0, ["run_trace"])
    traced = json.loads(out)
    keys = ("outcome", "steps", "state", "head", "window")
    assert [traced[k] for k in keys] == [alone[k] for k in keys]
    assert traced["stats"]["handoffs"] == alone["stats"]["handoffs"] == 0
    digest = hashlib.sha256(json.dumps(traced["checkpoints"]).encode())
    assert digest.hexdigest() == entries


def test_run_machine_from_file(capsys, tmp_path):
    path = tmp_path / "m.tm"
    path.write_text(machines.serialize_machine(machines.builtin_m54()))
    code, out, _ = run_cli(capsys, "run", "--file", str(path),
                           "--budget", "5")
    assert code == 0


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "run", "--file", "/nonexistent.tm",
                           "--budget", "5")
    assert code == 2
    assert "error:" in err


def test_malformed_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.tm"
    path.write_text("symbols 0 1\nnot a machine\n")
    code, _, err = run_cli(capsys, "run", "--file", str(path),
                           "--budget", "5")
    assert code == 2
    assert "error:" in err


def test_repeated_declaration_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "twice.tm"
    path.write_text(machines.serialize_machine(machines.builtin_m54())
                    + "symbols: 1 0 2 #\n")
    code, out, err = run_cli(capsys, "run", "--file", str(path),
                             "--budget", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line ") and "repeated symbols:" in err


def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "binary.tm"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run_cli(capsys, "run", "--file", str(path),
                             "--budget", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1:")


def test_scan_clean_exit(capsys):
    code, out, _ = run_cli(capsys, "scan", "--max-n", "200")
    assert code == 0
    assert "digit-2-free exponents: 0 2 8" in out


def test_scan_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "scan",
                           "--max-n", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["free_exponents"] == [0, 2, 8]
    assert payload["counterexample"] is None


def test_scan_stats_follow_the_existing_keys(capsys):
    """The scan to 100 reads 70 digits, the deepest at place 11 (the
    least significant digit is place 0)."""
    code, out, _ = run_cli(capsys, "--format", "json", "scan",
                           "--max-n", "100")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "bound", "free_exponents",
                             "digit_lengths", "digit_ops", "counterexample",
                             "elapsed_seconds", "stats"]
    stats = payload["stats"]
    assert list(stats) == ["exponents_per_s", "digit_ops", "deepest_digit"]
    assert stats["exponents_per_s"] > 0
    assert (stats["digit_ops"], stats["deepest_digit"]) == (70, 11)
    assert payload["digit_ops"] == 70
    code, out, _ = run_cli(capsys, "scan", "--max-n", "100")
    assert code == 0
    assert re.fullmatch(r"stats: [\d,]+ exponents/s, 70 digit ops, "
                        r"deepest digit tested 11", out.splitlines()[-1])


def test_scan_counterexample_exits_one(capsys, monkeypatch):
    """A scan that reports a digit-2-free exponent above 8 has found the
    anomaly the paper's machine halts on."""
    def scan_erdos(n_max):
        return ternary.ScanReport(bound=n_max, free_exponents=[0, 2, 8, 99])

    monkeypatch.setattr(ternary, "scan_erdos", scan_erdos)
    code, out, _ = run_cli(capsys, "scan", "--max-n", "100")
    assert code == 1
    assert "counterexample exponent: 99" in out


def test_check_sim(capsys):
    """The text report ends with a stats line of the transcript's counts,
    as `scan` and `enumerate` do: to 10^5 steps, 98 steps computed,
    1,441 replays, 641 sweeps and 396 passes."""
    code, out, _ = run_cli(capsys, "check-sim", "--steps", "200")
    assert code == 0
    assert "verified, f(200)=" in out
    code, out, _ = run_cli(capsys, "check-sim", "--steps", "100000")
    assert code == 0
    first, stats = out.splitlines()
    assert first == "verified, f(100000)=217198"
    assert re.fullmatch(r"stats: 98 steps computed, 1,441 replays, 641 "
                        r"sweeps, 396 passes, [\d,]+ small steps/s", stats)


def test_check_sim_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "check-sim",
                           "--steps", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "verified"
    assert payload["verified_to"] == 100
    stats = payload["stats"]
    assert stats["window_runs"] > 0
    assert stats["replays"] > 0
    assert stats["small_steps_per_s"] > 0


def test_check_sim_json_counts_sweeps_after_the_existing_keys(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "check-sim",
                           "--steps", "100000")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert list(stats) == ["window_runs", "replays", "sweeps",
                           "small_steps_per_s", "compression", "passes"]
    assert stats["sweeps"] > 0
    assert stats["passes"] > 0
    assert stats["compression"] == 100_000 / (
        stats["replays"] + stats["sweeps"] + stats["passes"])


def test_check_sim_mismatch_exits_one_with_typed_fields(capsys,
                                                         monkeypatch):
    """m152 with rewind_sim moving right on `a` fails at step 23; the JSON
    mismatch keeps its ints and strings as they are."""
    m152 = machines.builtin_m152()
    q = m152.state_index("rewind_sim")
    w, _, q2 = m152.transition(q, 0)
    bad = m152.with_cell(q, 0, Transition(w, R, q2))
    monkeypatch.setattr(machines, "builtin_m152", lambda: bad)
    code, out, _ = run_cli(capsys, "--format", "json", "check-sim",
                           "--steps", "100")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "mismatch"
    assert payload["mismatch"] == {"n": 23, "f": 51, "kind": "head",
                                   "expected": -1, "actual": 1}


def test_enumerate_confirmed(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "2", "-k", "2",
                           "--budget", "100")
    assert code == 0
    assert "BB candidate: 6" in out
    assert "confirmed" in out


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "enumerate",
                           "-n", "2", "-k", "2", "--budget", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_steps"] == 6
    assert payload["confirmed"] is True
    assert payload["counts"]["undecided"] == 0


@pytest.mark.parametrize("budget, confirmed", [(1000, True), (3, False)])
def test_enumerate_json_stats_follow_the_existing_keys(capsys, budget,
                                                       confirmed):
    """Closure verdicts stay counted under "escape" and get their own
    line in the stats; on a confirmed space every closure search
    decided.  The seconds spent in the decider pass and in the closure
    searches come after the existing keys, never negative and within the
    elapsed time."""
    code, out, _ = run_cli(capsys, "--format", "json", "enumerate", "-n",
                           "3" if confirmed else "2", "-k", "2",
                           "--budget", str(budget))
    assert code == (0 if confirmed else 1)
    payload = json.loads(out)
    assert list(payload) == [
        "command", "n", "k", "budget", "reduced", "total", "counts",
        "max_steps", "confirmed", "champions", "undecided",
        "elapsed_seconds", "stats"]
    assert list(payload["counts"]) == ["halts", "escape", "cycler",
                                       "translated-cycler", "undecided"]
    stats = payload["stats"]
    assert list(stats) == ["machines_per_s", "decider_pass_runs",
                           "decider_pass_steps", "closure_searches",
                           "closure_decided", "decider_pass_seconds",
                           "closure_seconds"]
    assert stats["machines_per_s"] > 0
    assert 0 < stats["decider_pass_runs"] <= payload["total"]
    assert stats["decider_pass_steps"] >= stats["decider_pass_runs"]
    assert 0 < stats["closure_decided"] <= payload["counts"]["escape"]
    assert (stats["closure_decided"] == stats["closure_searches"]) is \
        confirmed
    assert stats["decider_pass_seconds"] >= 0 and stats["closure_seconds"] >= 0
    assert (stats["decider_pass_seconds"] + stats["closure_seconds"]
            <= payload["elapsed_seconds"])
    code, text, _ = run_cli(capsys, "enumerate", "-n",
                            "3" if confirmed else "2", "-k", "2",
                            "--budget", str(budget))
    line = (f"decider pass {stats['decider_pass_runs']:,} runs of "
            f"{stats['decider_pass_steps']:,} steps in all, closure "
            f"{stats['closure_decided']:,} decided of "
            f"{stats['closure_searches']:,} searches")
    assert line in text and "machines/s" in text
    assert re.search(r"searches; [0-9.]+ s in the decider pass, [0-9.]+ s "
                     r"in closure searches", text)


def test_enumerate_undecided_written_not_dropped(capsys, tmp_path):
    out_path = tmp_path / "undecided.tm"
    code, out, _ = run_cli(capsys, "enumerate", "-n", "2", "-k", "2",
                           "--budget", "3", "--undecided-out", str(out_path))
    assert code == 1
    assert "NOT confirmed" in out
    text = out_path.read_text()
    # the emitted machines parse back under the canonical format
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert blocks
    for block in blocks:
        machines.parse_machine(block)


def test_enumerate_undecided_out_is_written_when_none_remain(capsys,
                                                            tmp_path):
    """A confirmed space still writes the file, empty, so that a file
    from an earlier run never stays stale, and the JSON names it."""
    out_path = tmp_path / "undecided.tm"
    out_path.write_text("stale\n")
    code, out, _ = run_cli(capsys, "--format", "json", "enumerate", "-n",
                           "2", "-k", "2", "--budget", "100",
                           "--undecided-out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["confirmed"] is True
    assert payload["undecided_path"] == str(out_path)
    assert out_path.read_text() == ""
    code, out, _ = run_cli(capsys, "enumerate", "-n", "2", "-k", "2",
                           "--budget", "100", "--undecided-out",
                           str(out_path))
    assert code == 0
    assert f"0 undecided machines written to {out_path}" in out


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_enumerate_undecided_out_bad_path_fails_before_enumerating(
        capsys, monkeypatch, tmp_path, where):
    """The file is opened before the enumeration runs, so a path that
    cannot be written exits 2 at once, with no output."""
    path = tmp_path if where == "directory" else tmp_path / "no" / "u.tm"

    def never(*args, **kwargs):
        raise AssertionError("enumerated before opening the file")

    monkeypatch.setattr(search, "enumerate_and_classify", never)
    code, out, err = run_cli(capsys, "--format", "json", "enumerate", "-n",
                             "2", "-k", "3", "--budget", "100",
                             "--undecided-out", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_enumerate_raw_flag(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "enumerate",
                           "-n", "1", "-k", "2", "--budget", "10", "--raw")
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced"] is False
    assert payload["total"] == 5 ** 2


def test_enumerate_past_a_byte_of_symbols_matches_three_symbols(capsys):
    """One state over 300 symbols enumerates like one state over 3: the
    tree-normal-form tables write only symbols 0 and 1."""
    summaries = []
    for k in ("300", "3"):
        code, out, _ = run_cli(capsys, "--format", "json", "enumerate",
                               "-n", "1", "-k", k, "--budget", "10")
        assert code == 0
        payload = json.loads(out)
        summaries.append((payload["total"], payload["counts"],
                          payload["max_steps"]))
    assert summaries[0] == summaries[1] == (
        3, {"halts": 1, "escape": 0, "cycler": 0, "translated-cycler": 2,
            "undecided": 0}, 1)


@pytest.mark.parametrize("argv", [
    ("run", "--builtin", "m54", "--budget", "5", "--show-window", "abc"),
    ("run", "--builtin", "m54", "--budget", "5", "--show-window", "5:3"),
    ("run", "--builtin", "m54", "--budget", "5", "--checkpoints", "a,b"),
    ("run", "--builtin", "m54", "--budget", "-5"),
    ("scan", "--max-n", "-3"),
    ("enumerate", "-n", "0", "-k", "2", "--budget", "10"),
    ("enumerate", "-n", "1", "-k", "1", "--budget", "10"),
], ids=["window-not-a-range", "window-reversed", "checkpoints-not-numbers",
        "negative-budget", "negative-max-n", "zero-states", "one-symbol"])
def test_bad_argument_is_an_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_checkpoint_past_budget_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--builtin", "m54", "--budget", "10",
                  "--checkpoints", "5,20"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "exceeds --budget 10" in err
    assert "running after" not in out
