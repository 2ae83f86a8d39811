"""Spans around the public functions of each library module, for the traced run.

The tracer replaces each traced function with a wrapper under every name
through which the library reaches it (``universe.evaluate`` as well as
``program.evaluate``, say), records one span per call and puts the originals
back on ``uninstall``. A span is ``[name, start, end, parent, info]``: times
from ``time.perf_counter``, ``parent`` the index of the enclosing span or
-1, ``info`` a dict of counts taken at the boundary. Spans stay in memory
until the run writes them out.

The benchmark opens its own root spans, ``setup`` and ``pass``, around the
work it times; the layer metrics are derived per root span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from pathlib import Path

import liftworlds
from liftworlds import domains, engine, io, model, program, queries, universe

MODULES = (liftworlds, domains, engine, io, model, program, queries, universe)

# span name -> (owner, attribute); the span name's first part is the layer
TARGETS = {
    "io.load_model": (io, "load_model"),
    "io.load_program": (io, "load_program"),
    "io.load_domain_spec": (io, "load_domain_spec"),
    "domains.enumerate_worlds": (domains, "enumerate_worlds"),
    "program.evaluate": (program, "evaluate"),
    "universe.expand": (universe, "expand"),
    "universe.instantiate": (universe, "instantiate"),
    "engine.lifted_query": (engine, "lifted_query"),
    "model.constraint": (model.Constraint, "extensional"),
    "model.project": (model, "project"),
    "model.count": (model, "conditional_count"),
    "model.contains_atom": (model.ParameterisedModel, "contains_atom"),
    "queries.query_all": (queries, "query_all"),
    "queries.top_k_model_prob": (queries, "top_k_model_prob"),
    "queries.top_k_query_prob": (queries, "top_k_query_prob"),
    "queries.skyline": (queries, "skyline"),
    "queries.trend_report": (queries, "trend_report"),
}
SELECTIONS = ("queries.top_k_model_prob", "queries.top_k_query_prob",
              "queries.skyline", "queries.trend_report")
OP_KINDS = ("split", "absorb", "multiply", "sum_out", "ground")


def _evaluate_info(worlds) -> dict:
    return {"tuples": sum(c.size for cw in worlds for c in cw.constraints)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if info is not None:
                self.spans[index][4] = info(result)
            return result

        return traced

    def _wrap_lifted_query(self, fn):
        """Passes an ``op_log`` through the public argument and counts its records."""

        @functools.wraps(fn)
        def traced(m, q, *, op_log=None):
            log = [] if op_log is None else op_log
            first = len(log)
            index = self.open("engine.lifted_query")
            try:
                return fn(m, q, op_log=log)
            finally:
                self.close(index)
                records = log[first:]
                info = Counter(r.kind for r in records)
                info["lifted_sum_out"] = sum(
                    1 for r in records if r.kind == "sum_out" and not r.detail.startswith("ground ")
                )
                info["groundings"] = m.ground_size()
                self.spans[index][4] = dict(info)

        return traced

    def install(self) -> None:
        for name, (owner, attr) in TARGETS.items():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                self._restore.append((owner, attr, raw))
                continue
            if name == "engine.lifted_query":
                wrapped = self._wrap_lifted_query(raw)
            else:
                wrapped = self._wrap(name, raw, _evaluate_info if name == "program.evaluate" else None)
            holders = [owner] + [m for m in MODULES if m is not owner and getattr(m, attr, None) is raw]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._restore.append((holder, attr, raw))

    def uninstall(self) -> None:
        for holder, attr, raw in reversed(self._restore):
            setattr(holder, attr, raw)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def _descendants(spans: list[list]) -> dict[int, list[int]]:
    """Root span index -> indices of every span below it."""
    root_of: dict[int, int] = {}
    below: dict[int, list[int]] = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent == -1:
            root_of[i] = i
            below[i] = []
        else:
            root_of[i] = root_of[parent]
            below[root_of[i]].append(i)
    return below


def _self_ms(spans: list[list], i: int, children: dict[int, list[int]]) -> float:
    _, start, end, _, _ = spans[i]
    return (end - start - sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))) * 1e3


def layer_metrics(spans: list[list], untraced_pass_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass where the layer works in the passes.

    A layer's time is its median over the traced passes; a layer that works
    only in set-up reports its median over the set-ups instead, and one that
    does no work in the workload reads 0. Op counts are per pass.
    """
    below = _descendants(spans)
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] != -1:
            children.setdefault(span[3], []).append(i)

    phases: dict[str, list[dict]] = {"setup": [], "pass": []}
    worlds: list[tuple[float, int]] = []  # (lifted_query ms, groundings), traced passes
    ops_per_pass: list[Counter] = []
    for root, members in below.items():
        phase = spans[root][0]
        if phase not in phases:
            continue
        totals: Counter = Counter()
        ops: Counter = Counter()
        for i in members:
            name, start, end, _, info = spans[i]
            totals[name + "_ms"] += (end - start) * 1e3
            if name in ("universe.expand", "queries.query_all"):
                totals[name + "_self_ms"] += _self_ms(spans, i, children)
            if name == "program.evaluate":
                totals["program.tuples"] += info["tuples"]
            if name == "engine.lifted_query":
                ops.update(info)
                if phase == "pass":
                    worlds.append(((end - start) * 1e3, info["groundings"]))
        phases[phase].append(totals)
        if phase == "pass":
            ops_per_pass.append(ops)
            phases[phase][-1]["pass_s"] = (spans[root][2] - spans[root][1])

    def per_unit(key: str) -> float:
        for phase in ("pass", "setup"):
            if any(t[key] for t in phases[phase]):
                return statistics.median(t[key] for t in phases[phase])
        return 0.0

    out: dict[str, tuple[float, str]] = {
        "io.load_ms": (per_unit("io.load_model_ms") + per_unit("io.load_program_ms")
                       + per_unit("io.load_domain_spec_ms"), "ms"),
        "domains.enumerate_ms": (per_unit("domains.enumerate_worlds_ms"), "ms"),
        "program.evaluate_ms": (per_unit("program.evaluate_ms"), "ms"),
    }
    tuples = per_unit("program.tuples")
    out["program.us_per_tuple"] = (out["program.evaluate_ms"][0] * 1e3 / tuples if tuples else 0.0, "us")
    out["universe.expand_ms"] = (per_unit("universe.expand_ms"), "ms")
    out["universe.expand_self_ms"] = (per_unit("universe.expand_self_ms"), "ms")
    out["universe.instantiate_ms"] = (per_unit("universe.instantiate_ms"), "ms")
    out["engine.lifted_query_ms"] = (per_unit("engine.lifted_query_ms"), "ms")
    if worlds:
        by_size: dict[int, list[float]] = {}
        for ms, size in worlds:
            by_size.setdefault(size, []).append(ms)
        smallest, largest = min(by_size), max(by_size)
        world_p50 = statistics.median(ms for ms, _ in worlds)
        per_grounding = statistics.median(ms * 1e3 / size for ms, size in worlds)
        growth = statistics.median(by_size[largest]) / statistics.median(by_size[smallest])
    else:
        world_p50 = per_grounding = growth = 0.0
    out["engine.world_ms_p50"] = (world_p50, "ms")
    out["engine.us_per_grounding_p50"] = (per_grounding, "us")
    out["engine.size_growth"] = (growth, "ratio")
    ops = ops_per_pass[0] if ops_per_pass else Counter()
    if any(o != ops for o in ops_per_pass):
        raise RuntimeError("op counts differ between passes of one run")
    for kind in OP_KINDS:
        out[f"engine.ops.{kind}"] = (ops[kind], "count")
    out["engine.lifted_share"] = (ops["lifted_sum_out"] / ops["sum_out"] if ops["sum_out"] else 0.0,
                                  "ratio")
    out["model.constraint_ms"] = (per_unit("model.constraint_ms"), "ms")
    out["model.project_ms"] = (per_unit("model.project_ms"), "ms")
    out["model.count_ms"] = (per_unit("model.count_ms"), "ms")
    out["model.contains_atom_ms"] = (per_unit("model.contains_atom_ms"), "ms")
    out["queries.query_all_self_ms"] = (per_unit("queries.query_all_self_ms"), "ms")
    out["queries.select_ms"] = (sum(per_unit(n + "_ms") for n in SELECTIONS), "ms")
    traced_pass_s = statistics.median(t["pass_s"] for t in phases["pass"])
    out["trace.overhead"] = (traced_pass_s / untraced_pass_s, "ratio")
    return out
