"""Tests of the benchmark itself, on the tiny smoke sizes:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import job  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(workload, trace, capsys, seed=1, reference=None):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--smoke"],
                    reference=reference)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_workloads_run_py_runs():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind,
                                               capsys):
    code, result = smoke(workload, trace, capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected


def test_wrong_reference_fails_the_run(capsys):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["smoke"]["champion-run"]["head"] += 1
    code, result = smoke("champion-run", 0, capsys, reference=reference)
    assert code != 0
    assert result["failed"] > 0 and not result["correct"]


def test_a_second_seed_classifies_without_failures(capsys):
    code, result = smoke("classify-3x2", 0, capsys, seed=2)
    assert code == 0 and result["failed"] == 0


def test_classify_inputs_follow_the_seed():
    first = run.classify_inputs(1, 20, 1000)
    assert first == run.classify_inputs(1, 20, 1000)
    assert first != run.classify_inputs(2, 20, 1000)


def test_every_draw_holds_the_same_number_of_slow_tables_from_the_pool():
    pool = json.loads(job.SLOW_POOL.read_text())
    assert all(job._table_class(cells, 1000) == "slow" for cells in pool)
    for seed in (1, 2):
        slow = [t["cells"] for t in run.classify_inputs(seed, 50, 1000)
                if t["class"] == "slow"]
        assert len(slow) == job.SLOW_TABLES
        assert all(cells in pool for cells in slow)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer(rep=0)
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
    outer, inner = tracer.finish()
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["self"] == pytest.approx(outer["duration"]
                                          - inner["duration"])


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "champion-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
