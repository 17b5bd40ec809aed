"""Checks of hdkg's outputs against computations made apart from the program.

Every function returns a list of problems; an empty list means the output
passed.  None of them compares against stored output: each recomputes what
the program should have produced, or tests a property the output must have.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance between the program's scores (scipy cdist) and plain
# numpy sums of the same float64 terms, which may add them in another order.
SCORE_RTOL = 1e-9


def training_call(result: dict, n_batches: int) -> list[str]:
    """A limited train_epoch call must report its batch count and a finite loss."""
    problems = []
    if result["batches"] != n_batches:
        problems.append(f"train_epoch ran {result['batches']} batches, expected {n_batches}")
    if not math.isfinite(result["loss"]):
        problems.append(f"train_epoch loss is not finite: {result['loss']}")
    return problems


def rank_bounds(M_v, H_r, bias, queries, ranks, splits) -> list[str]:
    """Each filtered rank lies between the optimistic and pessimistic ranks.

    Scores are negative L1 distances recomputed with numpy; the filter comes
    straight from the split arrays.  A tolerance of SCORE_RTOL on the target's
    score widens the bounds by any near-tie whose order summation could flip.
    """
    known = np.concatenate(splits)
    problems = []
    for (h, r, t), rank in zip(np.asarray(queries).tolist(), np.asarray(ranks).tolist()):
        scores = bias - np.abs(M_v[h] + H_r[r] - M_v).sum(axis=1)
        other_tails = known[(known[:, 0] == h) & (known[:, 1] == r), 2]
        scores[other_tails[other_tails != t]] = -np.inf
        target = scores[t]
        tol = SCORE_RTOL * (1.0 + abs(target))
        optimistic = 1 + int((scores > target + tol).sum())
        pessimistic = int((scores >= target - tol).sum())
        if not optimistic <= rank <= pessimistic:
            problems.append(f"rank {rank} of query ({h}, {r}, {t}) outside "
                            f"[{optimistic}, {pessimistic}]")
    return problems


def filter_index(index: dict, splits, sample_keys) -> list[str]:
    """The (head, relation) -> tails index matches np.unique over the splits."""
    rows = np.concatenate(splits)
    n_rel = int(rows[:, 1].max()) + 1
    keys = rows[:, 0] * n_rel + rows[:, 1]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    problems = []
    n_keys = len(np.unique(keys))
    if len(index) != n_keys:
        problems.append(f"filter index has {len(index)} keys, splits have {n_keys}")
    for h, r in sample_keys:
        lo, hi = np.searchsorted(sorted_keys, [h * n_rel + r, h * n_rel + r + 1])
        expected = np.unique(rows[order[lo:hi], 2])
        got = index.get((h, r))
        if got is None or not np.array_equal(np.asarray(got), expected):
            problems.append(f"filter index entry ({h}, {r}) is {got}, expected {expected}")
    return problems


def directional_derivative(grad_dot_v: float, fd: float, rtol: float) -> list[str]:
    """The gradient's derivative along v against a central finite difference."""
    if not math.isfinite(fd) or abs(fd - grad_dot_v) > rtol * abs(grad_dot_v):
        return [f"reference gradient along v is {grad_dot_v!r}, central "
                f"finite difference gives {fd!r} (rtol {rtol})"]
    return []


def sim_report(report, n_vertices: int, n_edges: int, D: int, cfg) -> list[str]:
    """Replay counters and the latency sum of one ``simulate`` report."""
    problems = []
    hv_bytes = D * cfg.elem_bytes
    for name, replay in (("cold", report.cold), ("warm", report.warm)):
        if replay["hits"] + replay["misses"] != n_edges:
            problems.append(f"{name} replay: hits + misses = "
                            f"{replay['hits'] + replay['misses']}, edges = {n_edges}")
        if replay["fetch_bytes"] != replay["misses"] * hv_bytes:
            problems.append(f"{name} replay: fetch_bytes {replay['fetch_bytes']} "
                            f"!= misses x D x elem_bytes")
    if report.cold["encodes"] != n_vertices:
        problems.append(f"cold replay encoded {report.cold['encodes']} of {n_vertices} vertices")
    if report.warm["encodes"] != 0:
        problems.append(f"warm replay re-encoded {report.warm['encodes']} vertices")
    stages_s = sum(stage["bound_s"] for stage in report.stages.values())
    expected_ms = (stages_s + cfg.host_overhead_s) * 1e3
    if not math.isclose(report.single_batch_latency_ms, expected_ms, rel_tol=1e-12):
        problems.append(f"latency {report.single_batch_latency_ms} ms != stage sum "
                        f"plus host overhead {expected_ms} ms")
    return problems


def sweep_rows(rows: list[dict], n_distinct_tails: int) -> list[str]:
    """LRU hit rate grows with capacity; a cache holding every tail never misses."""
    problems = []
    lru = sorted((row["capacity"], row["hit_rate"]) for row in rows if row["policy"] == "lru")
    for (cap_a, rate_a), (cap_b, rate_b) in zip(lru, lru[1:]):
        if rate_b < rate_a:
            problems.append(f"LRU warm hit rate fell from {rate_a} at {cap_a} "
                            f"to {rate_b} at {cap_b} slots")
    for row in rows:
        if row["capacity"] >= n_distinct_tails and (row["hit_rate"] != 1.0 or row["bytes_hbm"]):
            problems.append(f"{row['policy']} at {row['capacity']} slots holds every tail "
                            f"but has warm misses (hit rate {row['hit_rate']})")
    return problems
