"""Spans around the public functions of hdkg's layers, for the traced run.

The tracer replaces each listed function or method with a wrapper that
records a span: name, benchmark phase, start, end, parent span and a few
counts taken from the arguments or the result.  Module-level functions are
replaced in every loaded ``hdkg`` module that holds them, since modules
import each other's functions by name.  A listed function that no longer
exists is reported as absent; the run goes on without it.

Spans stay in memory; :func:`layer_metrics` reduces them to the per-layer
metrics once the run is over.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

# A score cell is active when its probability exceeds this share of the
# label-smoothing floor eps / V; below it, the cell's gradient is the per-row
# constant of model.loss_and_delta to working precision.
ACTIVE_CELL_FLOOR = 1e-12

# span name -> (module, attribute path)
TRACED = {
    "kg.load_cache": ("hdkg.kg", "load_cache"),
    "kg.add_reciprocal": ("hdkg.kg", "add_reciprocal"),
    "kg.tail_index": ("hdkg.kg", "tail_index"),
    "hdc.encode": ("hdkg.hdc", "encode"),
    "model.refresh": ("hdkg.model", "ModelState.refresh"),
    "model.memorize_edge_list": ("hdkg.model", "memorize_edge_list"),
    "model.score_batch": ("hdkg.model", "score_batch"),
    "model.loss_and_delta": ("hdkg.model", "loss_and_delta"),
    "model.chunked_backward": ("hdkg.model", "chunked_backward"),
    "model.optimizer_step": ("hdkg.model", "Optimizer.step"),
    "ranking.rank_queries": ("hdkg.ranking", "rank_queries"),
    "ranking.raw_scores": ("hdkg.ranking", "raw_scores"),
    "sim.schedule_epoch": ("hdkg.sim.scheduler", "schedule_epoch"),
    "sim.replay_schedule": ("hdkg.sim.cost", "replay_schedule"),
    "sim.simulate": ("hdkg.sim.cost", "simulate"),
    "sim.sweep_capacities": ("hdkg.sim.cost", "sweep_capacities"),
}


@dataclass
class Span:
    name: str
    phase: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _counts(name, args, kwargs, result, label_smoothing) -> dict:
    """Work counts for one call, read from its arguments and result."""
    if name == "kg.tail_index":
        return {"triples": sum(len(split) for split in args)}
    if name == "model.memorize_edge_list":
        kg, H_v = args[0], args[1]
        return {"edge_products": len(kg.train) * H_v.shape[1]}
    if name == "model.score_batch":
        state = args[0]
        return {"cells": result.P.size * state.M_v.shape[1]}
    if name == "model.chunked_backward":
        signals, delta = args[2], args[3]
        floor = ACTIVE_CELL_FLOOR * label_smoothing / delta.shape[1]
        return {"mode": _arg(args, kwargs, 5, "mode", "reference"),
                "active_frac": float((signals.P > floor).mean())}
    if name == "ranking.rank_queries":
        queries, index = args[1], _arg(args, kwargs, 2, "filter_index")
        masked = 0
        for h, r, t in np.asarray(queries).tolist():
            known = index.get((h, r)) if index is not None else None
            if known is not None and len(known) > 1:
                masked += int((known != t).sum())
        return {"masked": masked}
    if name == "sim.replay_schedule":
        cache = args[2]
        return {"accesses": result.hits + result.misses,
                "evictions_after": cache.evictions}
    if name == "sim.simulate":
        return {"policy": _arg(args, kwargs, 6, "cfg").cache_policy}
    return {}


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self, label_smoothing: float):
        self.label_smoothing = label_smoothing
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self):
        for name, (module_name, path) in TRACED.items():
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_path:
                self._replace(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "hdkg" and getattr(module, attr, None) is original:
                    self._replace(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, original):
        tracer = self
        is_backward = name == "model.chunked_backward"

        def traced(*args, **kwargs):
            # Allocations are traced only in the "alloc" phase, whose calls
            # count toward no time.
            measure_alloc = is_backward and tracer.phase == "alloc"
            span = Span(name, tracer.phase, 0.0,
                        tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            if measure_alloc:
                tracemalloc.start()
            if name == "sim.replay_schedule":
                span.counts["evictions_before"] = args[2].evictions
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.counts["raised"] = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if measure_alloc:
                    span.counts["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span.counts.update(_counts(name, args, kwargs, result,
                                       tracer.label_smoothing))
            return result

        traced.__wrapped__ = original
        return traced


# Which traced function each metric depends on; a metric of an absent
# function is reported as absent.
_SOURCES = {
    "kg.load_cache_s": "kg.load_cache",
    "kg.add_reciprocal_s": "kg.add_reciprocal",
    "kg.tail_index_s": "kg.tail_index",
    "kg.triples_indexed": "kg.tail_index",
    "hdc.encode_s": "hdc.encode",
    "model.refresh_s": "model.refresh",
    "model.memorize_edge_list_s": "model.memorize_edge_list",
    "model.edge_products": "model.memorize_edge_list",
    "model.score_batch_s": "model.score_batch",
    "model.score_cells": "model.score_batch",
    "model.loss_and_delta_s": "model.loss_and_delta",
    "model.backward_hw_s": "model.chunked_backward",
    "model.active_cell_frac": "model.chunked_backward",
    "model.backward_ref_s": "model.chunked_backward",
    "model.backward_ref_first_call_s": "model.chunked_backward",
    "model.backward_peak_alloc_mb": "model.chunked_backward",
    "model.optimizer_step_s": "model.optimizer_step",
    "ranking.rank_queries_s": "ranking.rank_queries",
    "ranking.masked_cells": "ranking.rank_queries",
    "ranking.filter_rank_self_s": "ranking.rank_queries",
    "ranking.raw_scores_s": "ranking.raw_scores",
    "sim.schedule_epoch_s": "sim.schedule_epoch",
    "sim.replay_schedule_s": "sim.replay_schedule",
    "sim.accesses": "sim.replay_schedule",
    "sim.evictions": "sim.replay_schedule",
    "sim.sweep_lru_s": "sim.sweep_capacities",
    "sim.sweep_lfu_s": "sim.sweep_capacities",
    "sim.sweep_random_s": "sim.sweep_capacities",
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, sim_report) -> tuple[dict, list[str]]:
    """Per-layer metric values from the spans, and the names reported absent.

    Times are medians over the measured rounds' calls, except the set-up
    metrics (medians over set-ups) and the first reference backward's time.
    The allocation high-water mark comes from the "alloc" phase's calls.
    ``sim_report`` is the ``SimReport`` of the measured ``simulate`` call; its
    warm-replay counters repeat exactly for a given input.
    """
    spans = tracer.spans
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def calls(name, phase="round"):
        return [(i, s) for i, s in enumerate(spans)
                if s.name == name and s.phase == phase and "raised" not in s.counts]

    def per_call(name, phase="round"):
        return _median(s.seconds for _, s in calls(name, phase))

    def child_seconds(index, name):
        return sum(s.seconds for s in children.get(index, []) if s.name == name)

    out: dict[str, float] = {}
    # A setup builds two indexes (train, then all splits); pair them in order.
    tails = [s for _, s in calls("kg.tail_index", "setup")]
    pairs = [tails[i:i + 2] for i in range(0, len(tails) - 1, 2)]
    out["kg.load_cache_s"] = per_call("kg.load_cache", "setup")
    out["kg.add_reciprocal_s"] = per_call("kg.add_reciprocal", "setup")
    out["kg.tail_index_s"] = _median(sum(s.seconds for s in p) for p in pairs)
    out["kg.triples_indexed"] = _median(sum(s.counts["triples"] for s in p) for p in pairs)
    out["hdc.encode_s"] = per_call("hdc.encode")
    out["model.refresh_s"] = per_call("model.refresh")
    out["model.memorize_edge_list_s"] = per_call("model.memorize_edge_list")
    out["model.edge_products"] = _median(
        s.counts["edge_products"] for _, s in calls("model.memorize_edge_list"))
    out["model.score_batch_s"] = per_call("model.score_batch")
    out["model.score_cells"] = _median(s.counts["cells"] for _, s in calls("model.score_batch"))
    out["model.loss_and_delta_s"] = per_call("model.loss_and_delta")
    backward = [s for _, s in calls("model.chunked_backward")]
    hw = [s for s in backward if s.counts["mode"] == "hardware"]
    ref = [s for s in backward if s.counts["mode"] == "reference"]
    out["model.backward_hw_s"] = _median(s.seconds for s in hw)
    out["model.active_cell_frac"] = _median(s.counts["active_frac"] for s in hw)
    out["model.backward_ref_s"] = _median(s.seconds for s in ref)
    first_ref = next((s for s in spans if s.name == "model.chunked_backward"
                      and s.counts.get("mode") == "reference"), None)
    out["model.backward_ref_first_call_s"] = first_ref.seconds if first_ref else 0.0
    out["model.backward_peak_alloc_mb"] = max(
        (s.counts["peak_alloc"] for _, s in calls("model.chunked_backward", "alloc")),
        default=0) / 2**20
    out["model.optimizer_step_s"] = per_call("model.optimizer_step")

    evals = calls("ranking.rank_queries")
    out["ranking.rank_queries_s"] = _median(s.seconds for _, s in evals)
    out["ranking.raw_scores_s"] = _median(child_seconds(i, "ranking.raw_scores") for i, _ in evals)
    out["ranking.filter_rank_self_s"] = _median(
        s.seconds - sum(c.seconds for c in children.get(i, [])) for i, s in evals)
    out["ranking.masked_cells"] = _median(s.counts["masked"] for _, s in evals)

    # The u50 simulate op is the top-level simulate span; sweep simulates
    # have sweep_capacities as parent.
    top_sims = [(i, s) for i, s in calls("sim.simulate") if s.parent is None]
    out["sim.schedule_epoch_s"] = _median(
        c.seconds for i, _ in top_sims for c in children.get(i, [])
        if c.name == "sim.schedule_epoch")
    out["sim.replay_schedule_s"] = _median(
        child_seconds(i, "sim.replay_schedule") for i, _ in top_sims)
    out["sim.accesses"] = _median(
        sum(c.counts["accesses"] for c in children.get(i, []) if c.name == "sim.replay_schedule")
        for i, _ in top_sims)
    warm_evictions = []
    for i, _ in top_sims:
        replays = [c for c in children.get(i, []) if c.name == "sim.replay_schedule"]
        if replays:
            warm_evictions.append(replays[-1].counts["evictions_after"]
                                  - replays[-1].counts["evictions_before"])
    out["sim.evictions"] = _median(warm_evictions)
    sweeps = calls("sim.sweep_capacities")
    for policy in ("lru", "lfu", "random"):
        out[f"sim.sweep_{policy}_s"] = _median(
            sum(c.seconds for c in children.get(i, [])
                if c.name == "sim.simulate" and c.counts.get("policy") == policy)
            for i, _ in sweeps)
    warm = sim_report.warm
    out["sim.warm_hits"] = warm["hits"]
    out["sim.warm_misses"] = warm["misses"]
    out["sim.fetch_bytes"] = warm["fetch_bytes"]
    out["sim.warm_hit_rate"] = warm["hit_rate"]

    absent = sorted(m for m, src in _SOURCES.items() if src in tracer.absent)
    for metric in absent:
        out[metric] = 0.0
    return out, absent
