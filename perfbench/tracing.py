"""Spans recorded from outside the library, around the calls into each layer.

``install`` replaces module attributes of ``sepgames`` with wrappers and
returns a function that puts the originals back, so untraced ops run the
library exactly as shipped.  A span is ``[name, start_ns, end_ns, parent,
op, leaf_calls, leaf_ns, leaf_name, counts, index]``.  The automaton's ``delta`` is
called up to millions of times per op, too often for a span per call, so
each span instead carries the count and summed time of the ``delta`` calls
made directly under it (the ``leaf`` fields).
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

from sepgames import automaton, core, frontend, safety
from sepgames.core import MeanPayoff, Parity

NAME, START, END, PARENT, OP, LEAF_CALLS, LEAF_NS, LEAF_NAME, COUNTS, INDEX = range(10)

# span name -> per-layer self-time metric
LAYER_MS = {
    "frontend.cli": "frontend.cli_self_ms",
    "frontend.parse_game": "frontend.parse_ms",
    "frontend.build_separator": "frontend.build_separator_ms",
    "core.graph_build": "core.graph_build_ms",
    "automaton.solve": "automaton.solve_self_ms",
    "automaton.check": "automaton.check_ms",
    "safety.attract": "safety.attract_ms",
    "safety.solve": "safety.solve_ms",
    "trace.bookkeeping": "trace.bookkeeping_ms",
}
LEAF_LAYERS = ("separators.delta", "combos.delta")
COUNT_KEYS = (
    "core.graph_edges",
    "automaton.product_states",
    "automaton.handed_vertices",
    "safety.attract_vertices",
    "safety.attract_edges",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.top = None
        self.op = None

    def open(self, name: str) -> list:
        parent = None if self.top is None else self.top[INDEX]
        rec = [name, 0, 0, parent, self.op, 0, 0, None, None, len(self.spans)]
        self.spans.append(rec)
        self.top = rec
        rec[START] = time.perf_counter_ns()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self.top = None if rec[PARENT] is None else self.spans[rec[PARENT]]

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                result = after(rec, result, args)
            return result

        return traced

    def leaf(self, fn, name: str):
        clock = time.perf_counter_ns

        def traced(q, c):
            t0 = clock()
            result = fn(q, c)
            top = self.top
            top[LEAF_NS] += clock() - t0
            top[LEAF_CALLS] += 1
            top[LEAF_NAME] = name
            return result

        return traced

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "leaf_calls", "leaf_ns", "leaf_name", "counts")
        with open(path, "w", encoding="utf-8") as out:
            for rec in self.spans:
                out.write(json.dumps(dict(zip(keys, rec[:INDEX]))) + "\n")


def install(tracer: Tracer):
    """Wrap every layer boundary the benchmark measures; returns the undo."""

    def traced_separator(rec, aut, args):
        family = "separators.delta" if isinstance(aut.alphabet, (Parity, MeanPayoff)) else "combos.delta"
        return dataclasses.replace(aut, delta=tracer.leaf(aut.delta, family))

    def graph_counts(rec, result, args):
        rec[COUNTS] = {"core.graph_edges": len(args[0].edges)}
        return result

    def attract_counts(rec, result, args):
        vertex_count, srcs = args[0], args[1]
        rec[COUNTS] = {"safety.attract_vertices": vertex_count, "safety.attract_edges": len(srcs)}
        return result

    def flat_product_counts(rec, result, args):
        # distinct codes the flat path hands to the attractor; timed as the
        # tracer's own work so it is not charged to the automaton layer
        attract_counts(rec, result, args)
        book = tracer.open("trace.bookkeeping")
        vertex_count, srcs, dsts, _, seed = args
        reached = np.zeros(vertex_count, dtype=bool)
        reached[srcs] = True
        reached[dsts] = True
        reached[np.asarray(seed, dtype=np.int64)] = True
        book[COUNTS] = {"automaton.product_states": int(reached.sum()), "automaton.handed_vertices": vertex_count}
        tracer.close(book)
        return result

    def object_product_counts(rec, result, args):
        n = args[0].vertex_count
        rec[COUNTS] = {"automaton.product_states": n, "automaton.handed_vertices": n}
        return result

    patches = [
        (frontend, "cli", "frontend.cli", None),
        (frontend, "parse_game", "frontend.parse_game", None),
        (frontend, "build_separator", "frontend.build_separator", traced_separator),
        (frontend, "separating_winning_region", "automaton.solve", None),
        (frontend, "solve_via_separating", "automaton.solve", None),
        (automaton, "accepts_all_paths", "automaton.check", None),
        (automaton, "_attract", "safety.attract", flat_product_counts),
        (automaton, "solve_safety", "safety.solve", object_product_counts),
        (safety, "_attract", "safety.attract", attract_counts),
        (core.Graph, "__init__", "core.graph_build", graph_counts),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    for owner, attr, name, after in patches:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, after))

    def uninstall() -> None:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return uninstall


def summarize(spans: list, traced_ops: int, count_ops: set) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``: self times as the mean
    per traced op, and counts summed over the ops in ``count_ops`` (one fixed
    pass, so they repeat exactly for a given seed)."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    ms = dict.fromkeys(list(LAYER_MS.values()) + [f"{k}_ms" for k in LEAF_LAYERS], 0.0)
    counts = dict.fromkeys(list(COUNT_KEYS) + [f"{k}_calls" for k in LEAF_LAYERS], 0)
    for i, rec in enumerate(spans):
        self_ns = rec[END] - rec[START] - child_ns[i] - rec[LEAF_NS]
        ms[LAYER_MS[rec[NAME]]] += self_ns / 1e6
        if rec[LEAF_NAME]:
            ms[f"{rec[LEAF_NAME]}_ms"] += rec[LEAF_NS] / 1e6
        if rec[OP] in count_ops:
            if rec[LEAF_NAME]:
                counts[f"{rec[LEAF_NAME]}_calls"] += rec[LEAF_CALLS]
            for key, value in (rec[COUNTS] or {}).items():
                counts[key] += value
    metrics = {key: (total / traced_ops, "ms") for key, total in ms.items()}
    metrics["delta.ms"] = (sum(metrics[f"{k}_ms"][0] for k in LEAF_LAYERS), "ms")
    handed = counts.pop("automaton.handed_vertices")
    metrics.update({key: (value, "count") for key, value in counts.items()})
    metrics["automaton.reach_frac"] = (counts["automaton.product_states"] / handed if handed else 0.0, "ratio")
    return metrics
