"""In-memory span tracing of the sunmesh layers, installed from outside.

The library has no instrumentation of its own, so the benchmark wraps the
public functions listed in ``LAYER_FUNCTIONS`` and rebinds each wrapper in
every ``sunmesh`` module namespace that holds the original.  Calls between
library functions go through module globals, so nested calls (for example
``reconstruct`` -> ``coupler_matrix`` -> ``su2_from_euler``) are recorded as
nested spans.  Nothing under ``src/`` is modified.

Spans are kept in flat arrays while the run is measured and written out as
gzip-compressed JSON lines only when it ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter

LAYER_FUNCTIONS = {
    "linalg": ("random_unitary_qr", "is_unitary", "project_to_su", "matrix_to_json", "matrix_from_json"),
    "su2": ("su2_from_euler", "zeroing_angles", "push_phase_through_coupler"),
    "mesh": ("reconstruct", "coupler_matrix", "depth", "render", "plan_to_json", "plan_from_json"),
    "decompose": ("triangle_decompose", "canonicalize", "clements_decompose", "reck_decompose"),
    "haar": ("sample_haar", "sample_unitaries", "validate_haar"),
    "symrep": ("FockBasis", "lifted_generator", "lift_plan", "lift_via_permanents", "permanent_ryser"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns)

NO_ITEM = -1


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, item."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = NO_ITEM
        # Canonicalize outcomes as (item, method) pairs, read from return_info.
        self.canonical_methods: list[tuple[int, str]] = []
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) for every rebinding.
        self._bindings: list[tuple[object, str, object, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.item.append(tracer.current_item)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()

        return traced

    def _wrap_canonicalize(self, fn):
        """Always ask canonicalize for its info, record the method, and
        hand back what the caller asked for."""
        signature = inspect.signature(fn)
        tracer = self

        def canonicalize(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            wanted = bound.arguments.get("return_info", False)
            bound.arguments["return_info"] = True
            plan, info = fn(*bound.args, **bound.kwargs)
            tracer.canonical_methods.append((tracer.current_item, info["method"]))
            return (plan, info) if wanted else plan

        return self.wrap("decompose.canonicalize", functools.wraps(fn)(canonicalize))

    def install(self) -> None:
        """Rebind every function of ``LAYER_FUNCTIONS`` in all loaded
        ``sunmesh`` modules.  The wrappers are made on the first call and
        reused; modules imported after it are not patched."""
        if not self._bindings:
            importlib.import_module("sunmesh.cli")
            modules = [m for name, m in sys.modules.items() if name == "sunmesh" or name.startswith("sunmesh.")]
            for layer, fns in LAYER_FUNCTIONS.items():
                home = importlib.import_module(f"sunmesh.{layer}")
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    if fn_name == "canonicalize":
                        wrapper = self._wrap_canonicalize(original)
                    else:
                        wrapper = self.wrap(f"{layer}.{fn_name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._bindings.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._bindings):
            setattr(module, attr, original)

    def extend(self, spans, methods, item: int) -> None:
        """Append spans and canonicalize methods recorded by another process
        (see :func:`read_jsonl`), re-numbered into this tracer and all
        assigned to ``item``."""
        offset = len(self.start)
        for rec in spans:
            self.name_id.append(self._intern(rec["name"]))
            self.start.append(rec["start"])
            self.end.append(rec["end"])
            self.parent.append(rec["parent"] + offset if rec["parent"] >= 0 else -1)
            self.item.append(item)
        self.canonical_methods.extend((item, m) for m in methods)

    def records(self):
        for sid in range(len(self.start)):
            yield {
                "id": sid,
                "name": self.names[self.name_id[sid]],
                "start": self.start[sid],
                "end": self.end[sid],
                "parent": self.parent[sid],
                "item": self.item[sid],
            }

    def write_jsonl(self, path) -> None:
        """Write spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")
            for item, method in self.canonical_methods:
                fh.write(json.dumps({"name": "decompose.canonicalize.method", "item": item, "method": method}) + "\n")

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Wrapped calls are synchronous, so children nest inside their parent
        and never overlap each other."""
        n = len(self.start)
        own = [self.end[s] - self.start[s] for s in range(n)]
        out = list(own)
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                out[p] -= own[s]
        return out


def read_jsonl(path):
    """Spans and canonicalize methods written by :meth:`Tracer.write_jsonl`."""
    spans, methods = [], []
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "method" in rec:
                methods.append(rec["method"])
            else:
                spans.append(rec)
    return spans, methods


def layer_metrics(tracer: Tracer, rounds: dict[int, int]) -> dict[str, float]:
    """Median per round of calls and self time for every traced name.

    ``rounds`` maps an item id to its round; a round is the unit whose work
    repeats exactly (one item, or one cycle of CLI pipelines).  Rounds with
    no call to a function count as zero.  Spans outside any item are not
    counted.
    """
    round_ids = sorted(set(rounds.values()))
    calls = {name: {r: 0 for r in round_ids} for name in TRACED_NAMES}
    self_ms = {name: {r: 0.0 for r in round_ids} for name in TRACED_NAMES}
    own = tracer.self_times()
    for sid in range(len(own)):
        r = rounds.get(tracer.item[sid])
        if r is None:
            continue
        name = tracer.names[tracer.name_id[sid]]
        calls[name][r] += 1
        self_ms[name][r] += 1e3 * own[sid]
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = float(statistics.median(calls[name].values()))
        out[f"{name}.self_ms"] = float(statistics.median(self_ms[name].values()))
    methods = [m for item, m in tracer.canonical_methods if item in rounds]
    out["decompose.canonicalize.analytic_ratio"] = (
        sum(m == "analytic" for m in methods) / len(methods) if methods else 0.0
    )
    return out
