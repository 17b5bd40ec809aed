"""Knowledge graph datasets: loading, vocabularies, adjacency, binary cache.

A dataset directory holds ``train.txt``, ``valid.txt`` and ``test.txt`` with
one tab-separated ``head relation tail`` triple per line.  Entities and
relations get dense integer ids in first-appearance order while scanning
train, then valid, then test (head before tail within a line).

Adjacency follows the directed out-neighbor convention: ``neighbors(i)``
is the multiset of ``(tail, relation)`` pairs over train triples with head
``i``, in (relation, tail) order, duplicate triples retained.

Every grouping by (vertex, relation) goes through one builder,
:meth:`PairIndex.build`: one sort of the combined ``(vertex * |R| + rel) *
|V| + member`` keys, split into sorted pair keys plus a CSR of sorted
members.  The graph's ``head_pairs`` and ``tail_pairs`` group the train
triples for the memorization walks of :mod:`hdkg.model`, duplicates kept.
``neighbors``, ``degrees`` and the model's relation sums read ``head_pairs``
too, so the train split is grouped by head once.
:func:`tail_index` builds the same structure over any splits with
duplicates dropped; it gives the trainer its multi-hot targets and filtered
ranking its known tails, both looked up a batch at a time.
"""

from __future__ import annotations

import operator
import os
import re
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .atomic import atomic_write
from .errors import DatasetFormatError, TripleParseError

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")

CACHE_MAGIC = b"HDKG"
CACHE_VERSION = 1
CACHE_HEADER = "<IIQQQQQ"   # version, augmented, |V|, |R|, train, valid, test counts
NAME_LENGTH = struct.Struct("<I")

RECIPROCAL_SUFFIX = "_reverse"
# Bytes that are not UTF-8 decode to these lone surrogates under
# errors="surrogateescape"; valid UTF-8 never yields them.
UNDECODABLE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True, eq=False)
class PairIndex(Mapping):
    """Triples grouped by (vertex, relation): sorted pair keys plus a CSR of members.

    Pair p has key ``key[p] = vertex * n_relations + rel``.  Keys are sorted,
    so pairs run by vertex, then relation.  Pair p's members are
    ``member[indptr[p]:indptr[p + 1]]``, sorted by id; duplicate triples stay
    separate members unless the index was built ``unique``.

    The index reads as a read-only mapping (vertex, relation) -> int64 member
    array, iterating over ``(vertex, relation)`` int tuples in key order.  A
    pair that is absent, including one with an id past the largest indexed,
    raises ``KeyError`` from ``[...]`` and gives ``None`` from ``get``.  Batch
    code uses :meth:`lookup` instead, one ``searchsorted`` for a whole batch.
    """

    key: np.ndarray
    indptr: np.ndarray
    member: np.ndarray
    n_entities: int
    n_relations: int

    @classmethod
    def build(cls, vertex: np.ndarray, rel: np.ndarray, other: np.ndarray,
              n_entities: int, n_relations: int, unique: bool = False) -> "PairIndex":
        """Group (vertex, rel, other) rows by pair with one sort of their combined keys.

        With ``unique``, repeated rows keep only their first copy, so each
        pair's members are distinct.
        """
        if int(n_entities) * int(n_relations) * int(n_entities) >= 2 ** 63:
            raise ValueError(f"{n_entities} x {n_relations} x {n_entities} keys overflow int64")
        code = np.sort((vertex * n_relations + rel) * n_entities + other)
        if unique and len(code):
            first = np.empty(len(code), dtype=bool)
            first[0] = True
            np.not_equal(code[1:], code[:-1], out=first[1:])
            code = code[first]
        pair, member = np.divmod(code, max(n_entities, 1))
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        member.setflags(write=False)
        return cls(key=pair[starts], indptr=np.append(starts, len(member)), member=member,
                   n_entities=n_entities, n_relations=n_relations)

    @property
    def n_pairs(self) -> int:
        return len(self.key)

    @cached_property
    def _vertex_rel(self) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(self.key, max(self.n_relations, 1))

    @property
    def vertex(self) -> np.ndarray:
        return self._vertex_rel[0]

    @property
    def rel(self) -> np.ndarray:
        return self._vertex_rel[1]

    @cached_property
    def members(self) -> sp.csr_matrix:
        """(pairs, |V|) CSR with one unit entry per member, for the graph walks."""
        return sp.csr_matrix((np.ones(len(self.member)), self.member, self.indptr),
                             shape=(self.n_pairs, self.n_entities))

    def find(self, vertex, rel) -> np.ndarray:
        """Position of each (vertex, rel) pair among the keys, -1 where absent."""
        vertex = np.asarray(vertex, dtype=np.int64)
        rel = np.asarray(rel, dtype=np.int64)
        if not self.n_pairs:
            return np.full(np.broadcast(vertex, rel).shape, -1)
        key = vertex * self.n_relations + rel
        pos = np.searchsorted(self.key, key)
        found = ((self.key.take(pos, mode="clip") == key)
                 & (vertex >= 0) & (vertex < self.n_entities)
                 & (rel >= 0) & (rel < self.n_relations))
        return np.where(found, pos, -1)

    def lookup(self, vertex, rel) -> tuple[np.ndarray, np.ndarray]:
        """Members of a batch of (vertex, rel) rows, flattened as (row, member).

        Entries run row by row in batch order, each row's members sorted; an
        absent pair gives its row no entries.
        """
        pos = self.find(vertex, rel)
        lo = np.where(pos >= 0, self.indptr[pos], 0)
        counts = np.where(pos >= 0, self.indptr[pos + 1], 0) - lo
        row = np.repeat(np.arange(len(counts)), counts)
        skip = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        return row, self.member[np.arange(len(row)) + skip]

    def __getitem__(self, pair) -> np.ndarray:
        try:
            vertex, rel = map(operator.index, pair)
            (p,) = self.find([vertex], [rel])
        except (TypeError, ValueError, OverflowError):
            raise KeyError(pair) from None
        if p < 0:
            raise KeyError(pair)
        return self.member[self.indptr[p]:self.indptr[p + 1]]

    def __iter__(self):
        return zip(self.vertex.tolist(), self.rel.tolist())

    def __len__(self) -> int:
        return self.n_pairs


@dataclass
class KnowledgeGraph:
    """Triple store with vocabularies and train-split adjacency.

    Attributes:
        entities: entity names, index = id.
        relations: relation names, index = id.
        train, valid, test: ``(n, 3)`` int64 arrays of (head, rel, tail) ids.
        augmented: True once reciprocal triples have been added.

    Derived from the train split on first use: the pair indexes ``head_pairs``
    (train triples grouped by (head, relation), tail members) and ``tail_pairs``
    (by (tail, relation), head members), and ``out_edges``, the per-vertex
    view of ``head_pairs`` that :meth:`neighbors` and :meth:`degrees` read.
    """

    entities: list[str]
    relations: list[str]
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    augmented: bool = False

    def __post_init__(self):
        for kind, names in (("entity", self.entities), ("relation", self.relations)):
            if len(set(names)) != len(names):
                raise DatasetFormatError(f"duplicate {kind} names in vocabulary")
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
    def head_pairs(self) -> PairIndex:
        heads, rels, tails = self.train[:, 0], self.train[:, 1], self.train[:, 2]
        return PairIndex.build(heads, rels, tails, self.n_entities, self.n_relations)

    @cached_property
    def tail_pairs(self) -> PairIndex:
        heads, rels, tails = self.train[:, 0], self.train[:, 1], self.train[:, 2]
        return PairIndex.build(tails, rels, heads, self.n_entities, self.n_relations)

    @cached_property
    def out_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offsets, tails, relations): vertex i's out-edges are entries
        ``offsets[i]:offsets[i + 1]`` of the read-only ``head_pairs.member`` and
        of its members' read-only relations, in (relation, tail) order."""
        pairs = self.head_pairs
        first_key = np.arange(self.n_entities + 1, dtype=np.int64) * self.n_relations
        offsets = pairs.indptr[np.searchsorted(pairs.key, first_key)]
        rels = np.repeat(pairs.rel, np.diff(pairs.indptr))
        rels.setflags(write=False)
        return offsets, pairs.member, rels

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (tails, relations) views of vertex i's train out-edges,
        duplicates kept, in (relation, tail) order."""
        # One lookup of the edges: this is the simulator's per-vertex path.
        offsets, tails, rels = self.out_edges
        lo, hi = offsets[i], offsets[i + 1]
        return tails[lo:hi], rels[lo:hi]

    def degrees(self) -> np.ndarray:
        """Train out-degree per vertex, duplicates counted."""
        return np.diff(self.out_edges[0])


def _parse_split(path: Path, entity_index: dict, relation_index: dict,
                 entities: list, relations: list) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and UNDECODABLE.search(line):
                raise TripleParseError(path, lineno, "not valid UTF-8")
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


def tail_index(*splits: np.ndarray) -> PairIndex:
    """Index (head, relation) -> sorted unique known tails across the splits.

    One sort of the splits' (head, relation, tail) keys builds it; |V| and
    |R| are one more than the largest entity and relation ids in the splits.
    """
    rows = np.concatenate([np.asarray(split, dtype=np.int64).reshape(-1, 3)
                           for split in splits] or [np.empty((0, 3), dtype=np.int64)])
    if len(rows) and rows.min() < 0:
        raise ValueError("tail_index needs non-negative ids")
    heads, rels, tails = rows.T
    n_entities = int(max(heads.max(), tails.max())) + 1 if len(rows) else 0
    n_relations = int(rels.max()) + 1 if len(rows) else 0
    return PairIndex.build(heads, rels, tails, n_entities, n_relations, unique=True)


def save_cache(kg: KnowledgeGraph, path) -> None:
    """Write the graph to a binary cache file (magic ``HDKG``, little-endian)."""
    with atomic_write(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack(CACHE_HEADER, CACHE_VERSION, int(kg.augmented),
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
    """Read a binary cache written by :func:`save_cache`.

    The header's counts are checked against the file size before anything
    else is read, so a corrupt count raises :class:`DatasetFormatError`
    instead of asking for an impossible read.
    """
    path = Path(path)
    header_size = len(CACHE_MAGIC) + struct.calcsize(CACHE_HEADER)
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size - header_size
        head = fh.read(header_size)
        if head[:4] != CACHE_MAGIC:
            raise DatasetFormatError(
                f"{path}: not a dataset cache (magic {head[:4]!r}, "
                f"expected {CACHE_MAGIC!r})")
        if len(head) != header_size:
            raise DatasetFormatError(f"{path}: truncated header")
        version, augmented, n_ent, n_rel, n_train, n_valid, n_test = struct.unpack_from(
            CACHE_HEADER, head, len(CACHE_MAGIC))
        if version != CACHE_VERSION:
            raise DatasetFormatError(
                f"{path}: unsupported cache version {version} (expected {CACHE_VERSION})")
        # Each name takes at least its 4-byte length and each triple 12 bytes.
        least = 4 * (n_ent + n_rel) + 12 * (n_train + n_valid + n_test)
        if least > left:
            raise DatasetFormatError(
                f"{path}: truncated name table or split data (header declares at "
                f"least {least} bytes, {left} left)")
        body = fh.read()
    offset = 0

    def read_names(count):
        nonlocal offset
        names = []
        for _ in range(count):
            try:
                (length,) = NAME_LENGTH.unpack_from(body, offset)
            except struct.error:
                raise DatasetFormatError(f"{path}: truncated name table") from None
            start, offset = offset + 4, offset + 4 + length
            blob = body[start:offset]
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
    n_triples = n_train + n_valid + n_test
    if len(body) - offset < 12 * n_triples:
        raise DatasetFormatError(f"{path}: truncated split data")
    if len(body) - offset > 12 * n_triples:
        raise DatasetFormatError(f"{path}: trailing bytes after split data")
    rows = np.frombuffer(body, dtype="<i4", offset=offset).reshape(-1, 3).astype(np.int64)
    splits = np.split(rows, [n_train, n_train + n_valid])
    return KnowledgeGraph(entities, relations, *splits, augmented=bool(augmented))
