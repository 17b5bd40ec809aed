"""Seeded, vectorised synthetic knowledge graphs for the benchmark.

Heads, relations and tails are drawn independently from power-law weights
over randomly permuted ids, so a few entities act as hubs the way popular
entities do in real graphs, without the hubs all sitting at low ids.  Every
triple is distinct and has no self-loop, as in the public datasets, and the
three splits are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GraphShape:
    """Size and skew of one synthetic dataset, before reciprocal augmentation."""

    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    head_skew: float
    tail_skew: float
    relation_skew: float

    def scaled(self, factor: float) -> "GraphShape":
        """Same skews with entity and triple counts scaled; relations kept."""
        def size(n):
            return max(1, round(n * factor))
        return GraphShape(size(self.n_entities), self.n_relations,
                          size(self.n_train), size(self.n_valid), size(self.n_test),
                          self.head_skew, self.tail_skew, self.relation_skew)


def _power_law(gen: np.random.Generator, n: int, skew: float) -> np.ndarray:
    weights = (1.0 + np.arange(n)) ** -skew
    weights /= weights.sum()
    return weights[gen.permutation(n)]


def synthetic_splits(shape: GraphShape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(train, valid, test) int64 id-triple arrays drawn from ``seed``."""
    gen = np.random.default_rng([seed, 0x6864])
    V, R = shape.n_entities, shape.n_relations
    w_head = _power_law(gen, V, shape.head_skew)
    w_tail = _power_law(gen, V, shape.tail_skew)
    w_rel = _power_law(gen, R, shape.relation_skew)
    total = shape.n_train + shape.n_valid + shape.n_test
    if total > V * (V - 1) * R // 4:
        raise ValueError(f"{total} triples do not fit a graph of shape {shape}")

    keys = np.empty(0, dtype=np.int64)
    while len(keys) < total:
        draw = int((total - len(keys)) * 1.25) + 64
        h = gen.choice(V, size=draw, p=w_head)
        r = gen.choice(R, size=draw, p=w_rel)
        t = gen.choice(V, size=draw, p=w_tail)
        fresh = ((h * R + r) * V + t)[h != t]
        keys = np.concatenate([keys, fresh])
        # Keep the first occurrence of each triple, in draw order.
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:total]
    triples = np.stack([keys // (R * V), keys // V % R, keys % V], axis=1)
    triples = triples[gen.permutation(total)]
    n_tv = shape.n_train + shape.n_valid
    return triples[:shape.n_train], triples[shape.n_train:n_tv], triples[n_tv:]
