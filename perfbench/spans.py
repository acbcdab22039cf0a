"""Spans and counts recorded around calls into rck's layers.

The tracer replaces a function at the binding its caller looks up (for
example `rck.cocritical.arrows`, which is what `is_cocritical` calls), so
no rck source changes.  Spans stay in memory as [layer, parent, start, end,
nodes] rows; nodes is the search-node count an `arrows` verdict reports.
"""

from __future__ import annotations

import importlib
import json
import math
from time import perf_counter

# The bindings each workload calls, as (module, attribute, layer).  Every one
# must record at least one call, so a refactor that moves an import cannot
# silently zero a layer.
BINDINGS = {
    "corpus-n8": [
        ("rck.cli", "run", "cli.run"),
        ("rck.cli", "parse_graph6", "graph6.parse"),
        ("rck.cli", "is_cocritical", "cocritical.is_cocritical"),
        ("rck.cocritical", "arrows", "arrowing.arrows"),
        ("rck.cocritical", "chromatic_number", "graphs.chromatic_number"),
        ("rck.cli", "lemma_suite", "cocritical.lemma"),
        ("rck.cli", "canonical_form", "canonical.canonical_form"),
        ("rck.cli", "is_saturated", "saturation.is_saturated"),
    ],
    "decide-ht34": [
        ("rck.arrowing", "arrows", "arrowing.arrows"),
        ("rck.cocritical", "is_cocritical", "cocritical.is_cocritical"),
        ("rck.cocritical", "arrows", "arrowing.arrows"),
        ("rck.cocritical", "chromatic_number", "graphs.chromatic_number"),
    ],
    "extremal-ht34": [
        ("rck.arrowing", "extremal_critical_coloring", "arrowing.extremal"),
        ("rck.cocritical", "check_lemma_1_2", "cocritical.lemma"),
        ("rck.cocritical", "mindeg_assert", "cocritical.lemma"),
        ("rck.cocritical", "check_lemma_1_5", "cocritical.lemma"),
        ("rck.cocritical", "chromatic_number", "graphs.chromatic_number"),
    ],
    "enumerate-n8": [
        ("rck.enumerate_graphs", "graphs_up_to", "enumerate_graphs.graphs_up_to"),
        ("rck.enumerate_graphs", "canonical_form", "canonical.canonical_form"),
        ("rck.enumerate_graphs", "parse_graph6", "graph6.parse"),
    ],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.calls: dict[str, int] = {}

    def wrap(self, workload: str) -> None:
        for module_name, attr, layer in BINDINGS[workload]:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrapper(getattr(module, attr), layer, f"{module_name}.{attr}"))
            self.calls[f"{module_name}.{attr}"] = 0

    def _wrapper(self, fn, layer: str, binding: str):
        spans, stack, calls = self.spans, self.stack, self.calls

        def traced(*args, **kwargs):
            calls[binding] += 1
            row = [layer, stack[-1], 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(row)
            row[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = perf_counter()
                stack.pop()
            if layer == "arrowing.arrows":
                row[4] = result.stats.nodes
            return result

        return traced

    def silent_bindings(self) -> list[str]:
        return [binding for binding, count in self.calls.items() if count == 0]

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for row in self.spans:
                out.write(json.dumps(row) + "\n")

    def summary(self) -> dict:
        """Per-layer calls, busy and self seconds and nodes, plus the
        per-call durations and extension counts of `is_cocritical`."""
        child_s = [0.0] * len(self.spans)
        child_arrows = [0] * len(self.spans)
        for layer, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                child_arrows[parent] += layer == "arrowing.arrows"
        layers: dict[str, dict] = {}
        cocritical_ms, extensions = [], []
        for i, (layer, parent, start, end, nodes) in enumerate(self.spans):
            agg = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "nodes": 0})
            agg["calls"] += 1
            agg["nodes"] += nodes
            agg["self_s"] += end - start - child_s[i]
            # Busy time counts only the outermost span of a layer.
            if parent < 0 or self.spans[parent][0] != layer:
                agg["busy_s"] += end - start
            if layer == "cocritical.is_cocritical":
                cocritical_ms.append((end - start) * 1e3)
                # One arrows call decides the graph itself, the rest its extensions.
                extensions.append(child_arrows[i] - 1)
        return {
            "layers": layers,
            "cocritical_graph_ms": {
                "samples": len(cocritical_ms),
                "p50": nearest_rank(cocritical_ms, 0.50),
                "p99": nearest_rank(cocritical_ms, 0.99),
            },
            "extensions_per_call": sum(extensions) / len(extensions) if extensions else 0.0,
        }


def nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
