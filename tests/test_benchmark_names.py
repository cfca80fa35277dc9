"""The benchmark's tracer wraps bblab functions by name; a rename or a
deletion there would make every traced benchmark run fail."""

import pathlib
import runpy

import bblab
from bblab import machines, tm

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def _wrapped():
    return {(module, func): counters for module, func, counters, _
            in runpy.run_path(str(TRACING))["WRAPPED"]}


def test_every_wrapped_function_exists():
    for module, func in _wrapped():
        assert callable(getattr(getattr(bblab, module), func)), (module, func)


def test_run_counters_read_real_results():
    wrapped = _wrapped()
    m54 = machines.builtin_m54()
    assert wrapped["tm", "run"]((m54, 5), {}, tm.run(m54, 5)) == {"steps": 5}
    snaps = tm.run_trace(m54, [1, 5])
    assert wrapped["tm", "run_trace"]((m54, [1, 5]), {}, snaps) == {
        "snapshots": 2}
