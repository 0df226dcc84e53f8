"""Spans around calls into trigroup's modules, recorded from outside.

A :class:`Tracer` wraps selected public functions of each module at run
time (every module attribute bound to the function is swapped, so names
imported with ``from .x import f`` are wrapped too), keeps one span per call
in memory, and turns the spans into per-layer metrics: inclusive time and
call count per function, self time per module, and the work sizes some
results carry.  Nothing in ``src/`` knows about it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from contextlib import contextmanager

MODULES = (
    "cli",
    "words",
    "presentation",
    "complexes",
    "enumeration",
    "fulfillment",
    "thresholds",
    "cayley",
)

WRAPPED = {
    "cli": ("main",),
    "words": ("enumerate_triangle_words",),
    "presentation": ("sample_presentation",),
    "complexes": ("cancel", "chain_report", "random_abstract_complex"),
    "enumeration": (
        "enumerate_reduced_diagrams",
        "isoperimetric_report",
        "sampled_violation_trend",
    ),
    "fulfillment": (
        "ratio_sweep",
        "count_letter_assignments",
        "exact_probabilities",
        "montecarlo_fulfillment",
    ),
    "thresholds": ("constants_pipeline", "constants_sweep", "min_k"),
    "cayley": (
        "build_ball",
        "ball_to_json_dict",
        "ball_from_json_dict",
        "slim_delta_estimate",
        "fig1_demo",
    ),
}

# generators get one span per next(); the span records the diagram's area
GENERATORS = {"enumeration.enumerate_reduced_diagrams"}
LEVELS = (1, 2, 3)


def _result_attrs(name: str, args, kwargs, result) -> dict | None:
    """Work sizes read off a call's arguments or result."""
    if name == "cayley.build_ball":
        return {"vertices": result.vertex_count, "closed": sum(result.closed)}
    if name == "cayley.slim_delta_estimate":
        return {"triangles": args[1] if len(args) > 1 else kwargs["samples"]}
    if name == "fulfillment.ratio_sweep":
        return {"structures": result["structures"]}
    return None


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in a fixed order, with its unit."""
    names = [("cli.import_s", "s"), ("thresholds.import_s", "s")]
    names.append(("cli.main_overhead_s", "s"))
    names += [(f"{mod}.self_s", "s") for mod in MODULES]
    for mod, funcs in WRAPPED.items():
        for func in funcs:
            names += [(f"{mod}.{func}_s", "s"), (f"{mod}.{func}.calls", "count")]
    names += [(f"enumeration.level{a}_s", "s") for a in LEVELS]
    names += [(f"enumeration.diagrams.level{a}", "count") for a in LEVELS]
    names += [
        ("cayley.vertices", "count"),
        ("cayley.closed_vertices", "count"),
        ("cayley.triangles", "count"),
        ("fulfillment.structures", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_pct", "%"),
    ]
    return names


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id: str, parent: str | None = None) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._root = parent
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> dict:
        span = {
            "id": f"{self.run_id}:{next(self._ids)}",
            "parent": self._stack[-1]["id"] if self._stack else self._root,
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
        }
        self._stack.append(span)
        return span

    def end(self, span: dict, attrs: dict | None = None) -> None:
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def _wrap(self, name: str, func):
        if name in GENERATORS:

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                items = func(*args, **kwargs)
                while True:
                    s = self.begin(name)
                    attrs = None
                    try:
                        item = next(items)
                        attrs = {"level": item.area}
                    except StopIteration:
                        return
                    finally:
                        self.end(s, attrs)
                    yield item

            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            s = self.begin(name)
            attrs = None
            try:
                result = func(*args, **kwargs)
                attrs = _result_attrs(name, args, kwargs, result)
                return result
            finally:
                self.end(s, attrs)

        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever trigroup binds it."""
        loaded = [
            m for key, m in list(sys.modules.items())
            if key == "trigroup" or key.startswith("trigroup.")
        ]
        for mod, funcs in WRAPPED.items():
            owner = sys.modules[f"trigroup.{mod}"]
            for func_name in funcs:
                original = getattr(owner, func_name)
                wrapper = self._wrap(f"{mod}.{func_name}", original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from spans; layers with no span read 0."""
    out = {name: 0 for name, _ in layer_metric_names()}
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def nested_in_same(s: dict) -> bool:
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] == s["name"]:
                return True
            p = by_id.get(p["parent"])
        return False

    for s in spans:
        mod = s["name"].split(".")[0]
        if mod not in MODULES:
            continue
        out[f"{mod}.self_s"] += own[s["id"]]
        out[f"{s['name']}.calls"] += 1
        if not nested_in_same(s):
            out[f"{s['name']}_s"] += s["end"] - s["start"]
        attrs = s.get("attrs", {})
        if "level" in attrs and attrs["level"] in LEVELS:
            out[f"enumeration.level{attrs['level']}_s"] += s["end"] - s["start"]
            out[f"enumeration.diagrams.level{attrs['level']}"] += 1
        out["cayley.vertices"] += attrs.get("vertices", 0)
        out["cayley.closed_vertices"] += attrs.get("closed", 0)
        out["cayley.triangles"] += attrs.get("triangles", 0)
        out["fulfillment.structures"] += attrs.get("structures", 0)
    out["cli.main_overhead_s"] = out["cli.self_s"]
    out["trace.spans"] = len(spans)
    return out


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        times[parts[2].strip()] = int(parts[1]) / 1e6
    return times
