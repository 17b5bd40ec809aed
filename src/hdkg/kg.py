"""Knowledge graph datasets: loading, vocabularies, adjacency, binary cache.

A dataset directory holds ``train.txt``, ``valid.txt`` and ``test.txt`` with
one tab-separated ``head relation tail`` triple per line.  Entities and
relations get dense integer ids in first-appearance order while scanning
train, then valid, then test (head before tail within a line).

Adjacency follows the directed out-neighbor convention: ``neighbors(i)``
is the multiset of ``(tail, relation)`` pairs over train triples with head
``i``.  Duplicate triples are retained; nothing here deduplicates.  Two
pair indexes group the same train triples by (head, relation) and by
(tail, relation) for the memorization walks of :mod:`hdkg.model`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DatasetFormatError, TripleParseError

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")

CACHE_MAGIC = b"HDKG"
CACHE_VERSION = 1

RECIPROCAL_SUFFIX = "_reverse"


@dataclass(frozen=True)
class PairIndex:
    """Distinct (vertex, relation) pairs of the train split and their members.

    Pairs are sorted by vertex, then relation.  ``members`` is a
    (pairs, |V|) CSR matrix whose row p holds one unit entry per train
    triple joining pair p's vertex to a member vertex under pair p's
    relation, sorted by member id; duplicate triples stay separate entries.
    """

    vertex: np.ndarray
    rel: np.ndarray
    members: sp.csr_matrix

    @classmethod
    def build(cls, vertex: np.ndarray, rel: np.ndarray, other: np.ndarray,
              n_entities: int, n_relations: int) -> "PairIndex":
        pair, member = np.divmod(np.sort((vertex * n_relations + rel) * n_entities + other),
                                 n_entities)
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        members = sp.csr_matrix((np.ones(len(member)), member, np.append(starts, len(member))),
                                shape=(len(starts), n_entities))
        vertex, rel = np.divmod(pair[starts], n_relations)
        return cls(vertex=vertex, rel=rel, members=members)

    @property
    def n_pairs(self) -> int:
        return len(self.vertex)


@dataclass
class KnowledgeGraph:
    """Triple store with vocabularies and train-split adjacency.

    Attributes:
        entities: entity names, index = id.
        relations: relation names, index = id.
        train, valid, test: ``(n, 3)`` int64 arrays of (head, rel, tail) ids.
        augmented: True once reciprocal triples have been added.

    Derived from the train split on first use: the head-sorted neighbor
    lists ``nbr_indptr``, ``nbr_tails`` and ``nbr_rels``, and the pair
    indexes ``head_pairs`` (train triples grouped by (head, relation), tail
    members) and ``tail_pairs`` (by (tail, relation), head members).
    """

    entities: list[str]
    relations: list[str]
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    augmented: bool = False

    def __post_init__(self):
        self.entity_index = {name: i for i, name in enumerate(self.entities)}
        self.relation_index = {name: i for i, name in enumerate(self.relations)}
        if len(self.entity_index) != len(self.entities):
            raise DatasetFormatError("duplicate entity names in vocabulary")
        if len(self.relation_index) != len(self.relations):
            raise DatasetFormatError("duplicate relation names in vocabulary")
        for split_name, split in (("train", self.train), ("valid", self.valid), ("test", self.test)):
            if split.ndim != 2 or split.shape[1] != 3:
                raise DatasetFormatError(f"{split_name} split must be (n, 3), got {split.shape}")
            if split.size:
                if split[:, [0, 2]].min() < 0 or split[:, [0, 2]].max() >= self.n_entities:
                    raise DatasetFormatError(f"{split_name} split has entity ids out of range")
                if split[:, 1].min() < 0 or split[:, 1].max() >= self.n_relations:
                    raise DatasetFormatError(f"{split_name} split has relation ids out of range")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    # The derived adjacency is built from the train split on first use, so a
    # graph that add_reciprocal replaces never builds it.

    @cached_property
    def _neighbor_lists(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        heads = self.train[:, 0]
        order = np.argsort(heads, kind="stable")
        counts = np.bincount(heads, minlength=self.n_entities)
        return (np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
                self.train[order, 2].astype(np.int64),
                self.train[order, 1].astype(np.int64))

    @property
    def nbr_indptr(self) -> np.ndarray:
        return self._neighbor_lists[0]

    @property
    def nbr_tails(self) -> np.ndarray:
        return self._neighbor_lists[1]

    @property
    def nbr_rels(self) -> np.ndarray:
        return self._neighbor_lists[2]

    @cached_property
    def head_pairs(self) -> PairIndex:
        heads, rels, tails = self.train[:, 0], self.train[:, 1], self.train[:, 2]
        return PairIndex.build(heads, rels, tails, self.n_entities, self.n_relations)

    @cached_property
    def tail_pairs(self) -> PairIndex:
        heads, rels, tails = self.train[:, 0], self.train[:, 1], self.train[:, 2]
        return PairIndex.build(tails, rels, heads, self.n_entities, self.n_relations)

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbors of vertex i in train: (tails, relations), duplicates kept."""
        # One lookup of the lists: this is the simulator's per-vertex path.
        indptr, tails, rels = self._neighbor_lists
        lo, hi = indptr[i], indptr[i + 1]
        return tails[lo:hi], rels[lo:hi]

    def degrees(self) -> np.ndarray:
        """Train out-degree per vertex, duplicates counted."""
        return np.diff(self.nbr_indptr)

    def relation_csr(self, r: int) -> sp.csr_matrix:
        """Adjacency of relation r as a sparse matrix A with A[i, j] = #(i, r, j) in train.

        Built on every call from the train split alone, so it serves as an
        independent route to the pair indexes.
        """
        mask = self.train[:, 1] == r
        data = np.ones(int(mask.sum()), dtype=np.float64)
        return sp.csr_matrix((data, (self.train[mask, 0], self.train[mask, 2])),
                             shape=(self.n_entities, self.n_entities))


def _parse_split(path: Path, entity_index: dict, relation_index: dict,
                 entities: list, relations: list) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            parts = line.split("\t")
            if len(parts) != 3:
                raise TripleParseError(path, lineno,
                                       f"expected 3 tab-separated fields, got {len(parts)}")
            h, r, t = parts
            if h not in entity_index:
                entity_index[h] = len(entities)
                entities.append(h)
            if r not in relation_index:
                relation_index[r] = len(relations)
                relations.append(r)
            if t not in entity_index:
                entity_index[t] = len(entities)
                entities.append(t)
            rows.append((entity_index[h], relation_index[r], entity_index[t]))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


def load_dataset(directory) -> KnowledgeGraph:
    """Load a triple dataset directory into a KnowledgeGraph."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetFormatError(f"dataset directory not found: {directory}")
    for name in SPLIT_FILES:
        if not (directory / name).is_file():
            raise DatasetFormatError(f"missing split file: {directory / name}")
    entities: list[str] = []
    relations: list[str] = []
    entity_index: dict[str, int] = {}
    relation_index: dict[str, int] = {}
    splits = [
        _parse_split(directory / name, entity_index, relation_index, entities, relations)
        for name in SPLIT_FILES
    ]
    return KnowledgeGraph(entities, relations, *splits)


def add_reciprocal(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Return a new graph with reciprocal triples added to every split.

    Each triple (h, r, t) gains a mirror (t, r + |R|, h); relation ids double.
    Evaluating tail prediction on the augmented valid/test splits therefore
    covers both prediction directions.  Applying this twice is an error.
    """
    if kg.augmented:
        raise DatasetFormatError("graph already contains reciprocal relations")
    n_rel = kg.n_relations
    relations = list(kg.relations) + [name + RECIPROCAL_SUFFIX for name in kg.relations]

    def mirror(split):
        if split.size == 0:
            return split.copy()
        flipped = np.stack([split[:, 2], split[:, 1] + n_rel, split[:, 0]], axis=1)
        return np.concatenate([split, flipped], axis=0)

    return KnowledgeGraph(
        list(kg.entities), relations,
        mirror(kg.train), mirror(kg.valid), mirror(kg.test),
        augmented=True,
    )


def degree_histogram(kg: KnowledgeGraph) -> dict[int, int]:
    """Histogram of train out-degrees: degree -> number of vertices."""
    counts = np.bincount(kg.degrees())
    return {int(d): int(c) for d, c in enumerate(counts) if c > 0}


def dataset_stats(kg: KnowledgeGraph) -> dict:
    """Summary counts, including the mean out-degree of the train split."""
    return {
        "n_entities": kg.n_entities,
        "n_relations": kg.n_relations,
        "n_train": int(len(kg.train)),
        "n_valid": int(len(kg.valid)),
        "n_test": int(len(kg.test)),
        "augmented": kg.augmented,
        "mean_degree": float(len(kg.train) / kg.n_entities) if kg.n_entities else 0.0,
    }


def tail_index(*splits: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Map (head, relation) -> sorted unique array of known tails across splits."""
    index: dict[tuple[int, int], set] = {}
    for split in splits:
        for h, r, t in split.tolist():
            index.setdefault((h, r), set()).add(t)
    return {key: np.asarray(sorted(tails), dtype=np.int64) for key, tails in index.items()}


def save_cache(kg: KnowledgeGraph, path) -> None:
    """Write the graph to a binary cache file (magic ``HDKG``, little-endian)."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<IIQQQQQ", CACHE_VERSION, int(kg.augmented),
                             kg.n_entities, kg.n_relations,
                             len(kg.train), len(kg.valid), len(kg.test)))
        for names in (kg.entities, kg.relations):
            for name in names:
                blob = name.encode("utf-8")
                fh.write(struct.pack("<I", len(blob)))
                fh.write(blob)
        for split in (kg.train, kg.valid, kg.test):
            fh.write(np.ascontiguousarray(split, dtype="<i4").tobytes())


def load_cache(path) -> KnowledgeGraph:
    """Read a binary cache written by :func:`save_cache`."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != CACHE_MAGIC:
                raise DatasetFormatError(
                    f"{path}: not a dataset cache (magic {magic!r}, "
                    f"expected {CACHE_MAGIC!r})")
            header = fh.read(struct.calcsize("<IIQQQQQ"))
            version, augmented, n_ent, n_rel, n_train, n_valid, n_test = struct.unpack(
                "<IIQQQQQ", header)
            if version != CACHE_VERSION:
                raise DatasetFormatError(
                    f"{path}: unsupported cache version {version} (expected {CACHE_VERSION})")

            def read_names(count):
                names = []
                for _ in range(count):
                    (length,) = struct.unpack("<I", fh.read(4))
                    blob = fh.read(length)
                    if len(blob) != length:
                        raise DatasetFormatError(f"{path}: truncated name table")
                    try:
                        names.append(blob.decode("utf-8"))
                    except UnicodeDecodeError as exc:
                        raise DatasetFormatError(
                            f"{path}: name {len(names)} is not valid UTF-8 ({exc})") from exc
                return names

            entities = read_names(n_ent)
            relations = read_names(n_rel)

            def read_split(count):
                raw = fh.read(count * 3 * 4)
                if len(raw) != count * 3 * 4:
                    raise DatasetFormatError(f"{path}: truncated split data")
                return np.frombuffer(raw, dtype="<i4").reshape(count, 3).astype(np.int64)

            splits = [read_split(n) for n in (n_train, n_valid, n_test)]
            if fh.read(1):
                raise DatasetFormatError(f"{path}: trailing bytes after split data")
    except struct.error as exc:
        raise DatasetFormatError(f"{path}: truncated header ({exc})") from exc
    return KnowledgeGraph(entities, relations, *splits, augmented=bool(augmented))
