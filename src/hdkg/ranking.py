"""Ranking evaluation and neighborhood reconstruction.

Tail-prediction queries (s, r, ?) are scored against every vertex.  On a
reciprocal-augmented split this covers both directions, since every test
triple also appears mirrored as (t, r_reverse, ?).  Ranks are pessimistic:
the target loses every tie.

    rank = 1 + #{c : score_c > score_t} + #{c != t : score_c == score_t}

Filtered evaluation masks all other known-true tails of (s, r) across the
splits to -inf before ranking.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import ShapeError, StalenessError
from .kg import PairIndex
from .model import ModelState, query_scores

HITS_LEVELS = (1, 3, 10)


@dataclass
class ScoringView:
    """The tensors scoring actually needs; robustness studies swap these out."""

    M_v: np.ndarray
    H_r: np.ndarray
    bias: float

    @classmethod
    def from_state(cls, state: ModelState) -> "ScoringView":
        if not state.mv_fresh:
            raise StalenessError("state must be refreshed before evaluation")
        return cls(M_v=state.M_v, H_r=state.H_r, bias=state.bias)


def raw_scores(view, subjects, rels) -> np.ndarray:
    """Raw pre-sigmoid scores of every candidate for each (subject, relation).

    The same scores training computes: :func:`hdkg.model.query_scores`.
    """
    return query_scores(view, subjects, rels)[1]


def rank_queries(view, queries: np.ndarray, filter_index: PairIndex | None = None,
                 filtered: bool = True, batch_size: int = 128) -> np.ndarray:
    """Pessimistic tail ranks for (head, rel, tail) query rows.

    Filtered ranking takes its known tails from ``filter_index``, an index
    built by :func:`hdkg.kg.tail_index`.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ShapeError(f"queries must be (n, 3), got {queries.shape}")
    if filtered and filter_index is None:
        raise ValueError("filtered ranking needs a filter index")
    ranks = np.empty(len(queries), dtype=np.int64)
    for b0 in range(0, len(queries), batch_size):
        rows = queries[b0:b0 + batch_size]
        scores = raw_scores(view, rows[:, 0], rows[:, 1])
        if filtered:
            row, known = filter_index.lookup(rows[:, 0], rows[:, 1])
            other = known != rows[row, 2]
            scores[row[other], known[other]] = -np.inf
        target_scores = scores[np.arange(len(rows)), rows[:, 2]]
        greater = (scores > target_scores[:, None]).sum(axis=1)
        equal = (scores == target_scores[:, None]).sum(axis=1) - 1
        ranks[b0:b0 + len(rows)] = 1 + greater + equal
    return ranks


def metrics(ranks: np.ndarray) -> dict:
    """MRR and Hits@{1,3,10} from a rank array."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("no ranks to aggregate")
    out = {"mrr": float((1.0 / ranks).mean())}
    for k in HITS_LEVELS:
        out[f"hits{k}"] = float((ranks <= k).mean())
    return out


def reconstruct_neighbors(state: ModelState, vertex: int, relation: int | None = None,
                          metric: str = "cosine") -> tuple[np.ndarray, np.ndarray]:
    """Rank all vertices by similarity between M[vertex] and their hypervectors.

    With a relation given, candidates are the bound pairs H_v[j] * H_r[r],
    which undoes the binding applied during memorization; without one, bare
    H_v[j].  Returns (candidate ids best-first, similarity scores).  Isolated
    vertices have a zero memory row, where cosine is undefined; those fall
    back to the neg_l1 metric.
    """
    if not state.mv_fresh:
        raise StalenessError("state must be refreshed before reconstruction")
    m = state.M_v[vertex]
    candidates = state.H_v if relation is None else state.H_v * state.H_r[relation]
    if metric == "cosine" and not np.any(m):
        metric = "neg_l1"
    if metric == "cosine":
        cnorm = np.linalg.norm(candidates, axis=1)
        sims = candidates @ m / np.linalg.norm(m)
        sims = np.where(cnorm > 0, sims / np.where(cnorm > 0, cnorm, 1.0), -np.inf)
    elif metric == "neg_l1":
        sims = -np.abs(candidates - m).sum(axis=1)
    elif metric == "sign_hamming":
        sims = (np.sign(candidates) == np.sign(m)).mean(axis=1)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    order = np.argsort(-sims, kind="stable")
    return order, sims[order]


def write_metrics_json(path, payload: dict) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def append_metrics_jsonl(path, payload: dict) -> None:
    with open(Path(path), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


METRICS_CSV_FIELDS = ("split", "mode", "mrr", "hits1", "hits3", "hits10",
                      "seed", "config_hash")


def write_metrics_csv(path, rows: list[dict]) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in METRICS_CSV_FIELDS})
