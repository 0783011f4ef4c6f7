"""Per-layer spans, recorded from outside the program.

The tracer wraps public functions of the program's modules: every module
attribute bound to a wrapped function is rebound to the wrapper, so calls
made through any import of the name are seen.  Each call records a span
(name, start, end, parent span, operation id) and adds to its layer's call
count and self time (span time minus the time of the spans it called).
Spans stay in memory until the run ends; past ``SPAN_CAP`` per layer only
the counters are kept.
"""

from __future__ import annotations

import json
import os
import sys
import time

SPAN_CAP = 20_000
SPIDER_KINDS = ("t3", "tpp", "tppp")

# layer -> (module, public functions); see README.md for what each should move.
LAYERS = {
    "formulas": ("turantrees.formulas", (
        "extremal_value", "ex_path", "ex_star", "ex_tpp", "ex_tppp", "ex_t3", "ex_t3_partial",
        "lower_bound", "upper_bound",
    )),
    "constructions": ("turantrees.constructions", ("extremal_graph",)),
    "containment.skeleton": ("turantrees.containment", ("contains_tree",)),
    "containment.generic": ("turantrees.containment", ("generic_backtrack",)),
    "containment.anchored": ("turantrees.containment", ("contains_through_edge",)),
    "containment.witness": ("turantrees.containment", ("verify_witness",)),
    "graphs.read": ("turantrees.graphs", ("read_graph_file",)),
    "graphs.encode": ("turantrees.graphs", ("to_graph6", "write_graph_file")),
    "trees": ("turantrees.trees", ("realize", "parse_family_spec")),
    "oracle": ("turantrees.oracle", ("ex_bruteforce",)),
}
ALL_LAYERS = ("cli", *LAYERS)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(ALL_LAYERS, 0)
        self.self_s = dict.fromkeys(ALL_LAYERS, 0.0)
        self.total_s = dict.fromkeys(ALL_LAYERS, 0.0)
        self.read_bytes = 0
        self.spans: list[tuple] = []
        self.kept = dict.fromkeys(ALL_LAYERS, 0)
        self.op = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, applies=None):
        """``fn`` wrapped to record a ``layer`` span per call; ``applies``
        may decline a call, which then runs untraced."""

        def traced(*args, **kwargs):
            if applies is not None and not applies(*args, **kwargs):
                return fn(*args, **kwargs)
            if layer == "graphs.read":
                self.read_bytes += os.path.getsize(args[0])
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.calls[layer] += 1
                self.self_s[layer] += end - start - frame[1]
                self.total_s[layer] += end - start
                if self.kept[layer] < SPAN_CAP:
                    self.kept[layer] += 1
                    self.spans.append((span_id, layer, start, end, parent, self.op))

        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a traced function."""
        def spider(g, f):
            return f.kind in SPIDER_KINDS

        targets = {}
        for layer, (module, names) in LAYERS.items():
            mod = sys.modules[module]
            for name in names:
                fn = getattr(mod, name)
                applies = spider if layer == "containment.skeleton" else None
                targets[id(fn)] = (fn, self.wrap(layer, fn, applies))
        for name, mod in list(sys.modules.items()):
            if name != "turantrees" and not name.startswith("turantrees."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, targets[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span_id, layer, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": layer, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
