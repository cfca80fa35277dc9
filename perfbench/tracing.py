"""In-memory span recorder for the traced benchmark run.

The tracer replaces public functions of the bblab modules with wrappers
that record one span per call: name, start, end, the index of the span
that was open when the call began (its parent) and the repetition id.
Calls between bblab modules go through module attributes
(`search.decide_escape`, `tm.run`, ...), so a wrapper installed on the
module also sees the calls the package makes internally.  Nothing here is
installed in an untraced repetition.
"""

from __future__ import annotations

import contextlib
import statistics
import time

# Spaces the enumerate-3x2 workload runs, by the tag the tracer gives them.
ENUMERATION_SPACES = ("3x2", "2x2", "2x2-raw")


def space_label(n: int, k: int, raw: bool) -> str:
    return f"{n}x{k}" + ("-raw" if raw else "")


def _space(args, kwargs):
    reduced = args[3] if len(args) > 3 else kwargs.get("reduced", True)
    return space_label(args[0], args[1], not reduced)


def _decided(args, kwargs, result):
    return {"decided": int(result is not None)}


# (module, function, counters taken from one call's arguments and result,
#  tag that splits the function's spans into groups)
WRAPPED = (
    ("tm", "run",
     lambda a, kw, r: {"steps": r.step_count}, None),
    ("tm", "run_trace",
     lambda a, kw, r: {"snapshots": len(r)}, None),
    ("ternary", "scan_erdos",
     lambda a, kw, r: {"exponents": r.bound + 1, "digit_ops": r.digit_ops},
     None),
    ("simcheck", "verify_simulation",
     lambda a, kw, r: {"small_steps": r.n_verified,
                       "big_steps": int(r.f[r.n_verified])}, None),
    ("search", "verify_checkpoints",
     lambda a, kw, r: {"steps": r.final_step}, None),
    ("fst", "double_reverse_ternary",
     lambda a, kw, r: {"digits": len(a[0])}, None),
    ("search", "enumerate_and_classify",
     lambda a, kw, r: {"machines": r.total}, _space),
    ("search", "classify", None, None),
    ("search", "decide_escape", _decided, None),
    ("search", "decide_translated_cycler", _decided, None),
    ("search", "decide_regular_closure", _decided, None),
    ("search", "revalidate_certificate",
     lambda a, kw, r: {"ok": int(bool(r))}, None),
    ("machines", "builtin", None, None),
    ("machines", "serialize_machine", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Spans of one repetition.  `install` wraps the functions in WRAPPED
    and `uninstall` restores them; `begin`/`end` and `span` record a span
    around benchmark code such as the whole job."""

    def __init__(self, rep: int):
        self.rep = rep
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "rep": self.rep,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def install(self, bblab) -> None:
        for module_name, func_name, counters, tag in WRAPPED:
            module = getattr(bblab, module_name)
            original = getattr(module, func_name)
            self._originals.append((module, func_name, original))
            setattr(module, func_name,
                    self._wrap(f"{module_name}.{func_name}", original,
                               counters, tag))

    def uninstall(self) -> None:
        for module, func_name, original in self._originals:
            setattr(module, func_name, original)
        self._originals.clear()

    def _wrap(self, name, fn, counters, tag):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if counters is not None:
                span["counters"] = counters(args, kwargs, result)
            if tag is not None:
                span["tag"] = tag(args, kwargs)
            return result

        return traced

    def finish(self) -> list[dict]:
        """Spans with `duration` and `self` (duration minus the time its
        direct children cover) filled in."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            span["duration"] = span["end"] - span["start"]
            if span["parent"] is not None:
                covered[span["parent"]] += span["duration"]
        for span, child_time in zip(self.spans, covered):
            span["self"] = span["duration"] - child_time
        return self.spans


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer numbers of one repetition.  Every wrapped function is
    reported, with zero calls when the workload never reached it."""
    by_name: dict = {f"{m}.{f}": [] for m, f, _, _ in WRAPPED}
    for span in spans:
        if span["name"] in by_name:
            by_name[span["name"]].append(span)

    def total(name, key="duration"):
        return sum(s[key] for s in by_name[name])

    def count(name, counter):
        return sum(s.get("counters", {}).get(counter, 0)
                   for s in by_name[name])

    out = {}
    for name, calls in by_name.items():
        out[f"{name}.calls"] = len(calls)
        out[f"{name}.s"] = total(name)
        out[f"{name}.self_s"] = total(name, "self")
    out["tm.run.steps_per_s"] = _rate(count("tm.run", "steps"),
                                      total("tm.run"))
    out["tm.run_trace.snapshots"] = count("tm.run_trace", "snapshots")
    scan = "ternary.scan_erdos"
    out[f"{scan}.exponents_per_s"] = _rate(count(scan, "exponents"),
                                           total(scan))
    out[f"{scan}.digit_ops"] = count(scan, "digit_ops")
    sim = "simcheck.verify_simulation"
    out[f"{sim}.small_steps_per_s"] = _rate(count(sim, "small_steps"),
                                            total(sim))
    out[f"{sim}.big_steps"] = count(sim, "big_steps")
    out["search.verify_checkpoints.steps_per_s"] = _rate(
        count("search.verify_checkpoints", "steps"),
        total("search.verify_checkpoints"))
    out["fst.double_reverse_ternary.digits_per_s"] = _rate(
        count("fst.double_reverse_ternary", "digits"),
        total("fst.double_reverse_ternary"))
    enum = "search.enumerate_and_classify"
    for space in ENUMERATION_SPACES:
        out[f"{enum}.{space}.s"] = sum(
            s["duration"] for s in by_name[enum] if s.get("tag") == space)
    for decider in ("decide_escape", "decide_translated_cycler",
                    "decide_regular_closure"):
        name = f"search.{decider}"
        decided = count(name, "decided")
        out[f"{name}.decided"] = decided
        out[f"{name}.decided_ratio"] = _rate(decided, len(by_name[name]))
    out["search.revalidate_certificate.ok"] = count(
        "search.revalidate_certificate", "ok")
    latencies = [s["duration"] * 1e3 for s in by_name["search.classify"]]
    out["search.classify.p50_ms"], out["search.classify.p99_ms"] = (
        percentiles(latencies))
    return out


def percentiles(values: list[float]) -> tuple[float, float]:
    """(p50, p99) of `values`: the value itself when there is one, zeros
    when there are none."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]
