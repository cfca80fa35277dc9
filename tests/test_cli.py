"""Command-line interface: exit codes, text output, JSON output."""

import json

import pytest

from bblab import cli, machines


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


def test_check_sim(capsys):
    code, out, _ = run_cli(capsys, "check-sim", "--steps", "200")
    assert code == 0
    assert "verified, f(200)=" in out


def test_check_sim_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "check-sim",
                           "--steps", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "verified"
    assert payload["verified_to"] == 100


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


def test_enumerate_raw_flag(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "enumerate",
                           "-n", "1", "-k", "2", "--budget", "10", "--raw")
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced"] is False
    assert payload["total"] == 5 ** 2


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
