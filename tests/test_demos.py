"""The walkthroughs in demos/ run to completion and print what they
promise.  Demo 05 runs without --stretch, the spaces up to (3,2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, line", [
    ("01_running_machines.py", "halted: True after 47,176,870 steps"),
    ("01_running_machines.py",
     "compression: 71.07 steps per macro step, kept on the pass stepper "
     "throughout"),
    ("02_doubling_transducer.py",
     "all 9840 padded words of up to 9 digits double correctly"),
    ("03_erdos_scan.py", "digit-2-free exponents: [0, 2, 8]"),
    ("04_simulation_check.py", "time scale: f(5)=10, f(16)=35, f(333)=741"),
    ("05_busy_beaver_search.py", "BB(3,2) candidate = 21  [confirmed]"),
    ("05_busy_beaver_search.py", "machines/s; the closure search decided "
     "86 of the 86 machines that outlasted the budget"),
])
def test_demo_runs(demo, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert line in out.stdout
