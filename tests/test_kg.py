"""Dataset loading, adjacency, reciprocal augmentation, and the binary cache."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dict_tail_index, graph_from_triples, make_graph, relation_csr
from hdkg.errors import DatasetFormatError, TripleParseError
from hdkg.kg import (
    KnowledgeGraph,
    add_reciprocal,
    dataset_stats,
    degree_histogram,
    load_cache,
    load_dataset,
    save_cache,
    tail_index,
)

TRAIN = "alice\tknows\tbob\nbob\tknows\tcarol\nalice\tlikes\tcarol\n"
VALID = "carol\tknows\talice\n"
TEST = "bob\tlikes\talice\n"


def write_dataset(tmp_path, train=TRAIN, valid=VALID, test=TEST):
    for name, text in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


class TestLoadDataset:
    def test_vocabulary_in_first_appearance_order(self, tmp_path):
        kg = load_dataset(write_dataset(tmp_path))
        assert kg.entities == ["alice", "bob", "carol"]
        assert kg.relations == ["knows", "likes"]
        np.testing.assert_array_equal(
            kg.train, [[0, 0, 1], [1, 0, 2], [0, 1, 2]])
        np.testing.assert_array_equal(kg.valid, [[2, 0, 0]])
        np.testing.assert_array_equal(kg.test, [[1, 1, 0]])
        assert not kg.augmented

    def test_vocabulary_spans_all_splits(self, tmp_path):
        kg = load_dataset(write_dataset(tmp_path, test="dave\tknows\talice\n"))
        assert "dave" in kg.entities
        assert kg.entity_index["dave"] == 3

    def test_missing_split_file(self, tmp_path):
        (tmp_path / "train.txt").write_text(TRAIN)
        with pytest.raises(DatasetFormatError, match="valid.txt"):
            load_dataset(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="not found"):
            load_dataset(tmp_path / "nope")

    def test_bad_field_count_reports_line(self, tmp_path):
        write_dataset(tmp_path, train="a\tknows\tb\nbroken line\n")
        with pytest.raises(TripleParseError) as err:
            load_dataset(tmp_path)
        assert "train.txt:2:" in str(err.value)
        assert err.value.lineno == 2

    def test_empty_splits_allowed(self, tmp_path):
        kg = load_dataset(write_dataset(tmp_path, valid="", test=""))
        assert len(kg.valid) == 0 and len(kg.test) == 0
        assert kg.valid.shape == (0, 3)


class TestValidation:
    def test_entity_id_out_of_range(self):
        with pytest.raises(DatasetFormatError, match="entity ids out of range"):
            KnowledgeGraph(["a"], ["r"],
                           np.array([[0, 0, 5]]),
                           np.empty((0, 3), dtype=np.int64),
                           np.empty((0, 3), dtype=np.int64))

    def test_relation_id_out_of_range(self):
        with pytest.raises(DatasetFormatError, match="relation ids out of range"):
            KnowledgeGraph(["a", "b"], ["r"],
                           np.array([[0, 3, 1]]),
                           np.empty((0, 3), dtype=np.int64),
                           np.empty((0, 3), dtype=np.int64))

    def test_bad_split_shape(self):
        with pytest.raises(DatasetFormatError, match=r"\(n, 3\)"):
            KnowledgeGraph(["a"], ["r"],
                           np.zeros((2, 2), dtype=np.int64),
                           np.empty((0, 3), dtype=np.int64),
                           np.empty((0, 3), dtype=np.int64))

    def test_duplicate_entity_names(self):
        with pytest.raises(DatasetFormatError, match="duplicate entity"):
            KnowledgeGraph(["a", "a"], ["r"],
                           np.empty((0, 3), dtype=np.int64),
                           np.empty((0, 3), dtype=np.int64),
                           np.empty((0, 3), dtype=np.int64))


class TestAdjacency:
    def test_neighbors_and_degrees(self):
        kg = graph_from_triples(
            [(0, 0, 1), (0, 1, 2), (1, 0, 2), (0, 0, 1)], 3, 2)
        tails, rels = kg.neighbors(0)
        assert sorted(zip(tails.tolist(), rels.tolist())) == [(1, 0), (1, 0), (2, 1)]
        np.testing.assert_array_equal(kg.degrees(), [3, 1, 0])
        tails2, _ = kg.neighbors(2)
        assert len(tails2) == 0

    def test_adjacency_uses_train_only(self):
        kg = graph_from_triples(
            [(0, 0, 1), (1, 0, 2), (2, 0, 0)], 3, 1, n_valid=1, n_test=1)
        np.testing.assert_array_equal(kg.degrees(), [1, 0, 0])

    def test_relation_csr_counts_duplicates(self):
        kg = graph_from_triples(
            [(0, 0, 1), (0, 0, 1), (1, 0, 2), (0, 1, 2)], 3, 2)
        A0 = relation_csr(kg, 0).toarray()
        assert A0[0, 1] == 2.0 and A0[1, 2] == 1.0 and A0.sum() == 3.0
        A1 = relation_csr(kg, 1).toarray()
        assert A1[0, 2] == 1.0 and A1.sum() == 1.0

    def test_adjacency_is_built_on_first_use(self):
        kg = graph_from_triples([(0, 0, 1), (1, 1, 2), (0, 1, 2)], 3, 2)
        aug = add_reciprocal(kg)
        derived = {"_neighbor_lists", "head_pairs", "tail_pairs"}
        assert not derived & set(vars(kg)), "the replaced graph built its adjacency"
        tails, rels = aug.neighbors(2)
        assert sorted(zip(tails.tolist(), rels.tolist())) == [(0, 3), (1, 3)]
        assert derived & set(vars(aug)) == {"_neighbor_lists"}
        np.testing.assert_array_equal(aug.head_pairs.vertex, [0, 0, 1, 1, 2])
        np.testing.assert_array_equal(aug.head_pairs.rel, [0, 1, 1, 2, 3])


class TestReciprocal:
    def test_mirrors_every_split(self):
        kg = graph_from_triples(
            [(0, 0, 1), (1, 1, 2), (2, 0, 0)], 3, 2, n_valid=1, n_test=1)
        aug = add_reciprocal(kg)
        assert aug.n_relations == 4
        assert aug.relations[2] == kg.relations[0] + "_reverse"
        np.testing.assert_array_equal(aug.train, [[0, 0, 1], [1, 2, 0]])
        np.testing.assert_array_equal(aug.valid, [[1, 1, 2], [2, 3, 1]])
        np.testing.assert_array_equal(aug.test, [[2, 0, 0], [0, 2, 2]])
        assert aug.augmented

    def test_double_augmentation_rejected(self):
        kg = graph_from_triples([(0, 0, 1)], 2, 1)
        with pytest.raises(DatasetFormatError, match="already"):
            add_reciprocal(add_reciprocal(kg))

    def test_original_untouched(self):
        kg = graph_from_triples([(0, 0, 1)], 2, 1)
        add_reciprocal(kg)
        assert kg.n_relations == 1 and len(kg.train) == 1


# Small id ranges so that hypothesis draws plenty of duplicate triples.
_triples = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 6)),
                    max_size=40)


def _split(rows):
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


class TestTailIndex:
    def test_merges_splits_sorted_unique(self):
        a = np.array([[0, 0, 2], [0, 0, 1], [0, 0, 2]])
        b = np.array([[0, 0, 3], [1, 0, 0]])
        index = tail_index(a, b)
        np.testing.assert_array_equal(index[(0, 0)], [1, 2, 3])
        np.testing.assert_array_equal(index[(1, 0)], [0])
        assert set(index) == {(0, 0), (1, 0)}

    @settings(max_examples=200, deadline=None)
    @given(splits=st.lists(_triples, max_size=3),
           probes=st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 6)), max_size=20))
    def test_matches_dict_of_sets(self, splits, probes):
        arrays = [_split(rows) for rows in splits]
        index, oracle = tail_index(*arrays), dict_tail_index(*arrays)
        assert len(index) == len(oracle)
        assert list(index) == sorted(oracle)
        for key, tails in oracle.items():
            got = index[key]
            assert got.dtype == np.int64 and not got.flags.writeable
            np.testing.assert_array_equal(got, tails)
        for key in probes:
            if key in oracle:
                np.testing.assert_array_equal(index.get(key), oracle[key])
            else:
                assert index.get(key) is None
                with pytest.raises(KeyError):
                    index[key]
        heads, rels = (np.array([k[i] for k in probes], dtype=np.int64) for i in (0, 1))
        row, member = index.lookup(heads, rels)
        expected = [(j, t) for j, key in enumerate(probes) for t in oracle.get(key, [])]
        assert list(zip(row.tolist(), member.tolist())) == expected

    def test_iteration_yields_int_tuples(self):
        index = tail_index(np.array([[3, 1, 0], [0, 2, 1]]))
        keys = list(index)
        assert keys == [(0, 2), (3, 1)]
        assert all(type(h) is int and type(r) is int for h, r in keys)

    def test_empty_splits(self):
        empty = np.empty((0, 3), dtype=np.int64)
        for index in (tail_index(), tail_index(empty, empty)):
            assert len(index) == 0 and list(index) == []
            assert index.get((0, 0)) is None
            row, member = index.lookup(np.array([0, 1]), np.array([0, 0]))
            assert row.size == member.size == 0

    def test_relation_only_in_test(self):
        train = np.array([[0, 0, 1], [1, 0, 2]])
        test = np.array([[2, 1, 0]])
        index = tail_index(train, test)
        np.testing.assert_array_equal(index[(2, 1)], [0])
        assert tail_index(train).get((2, 1)) is None

    def test_ids_past_the_largest_are_absent(self):
        # (0, 2) would alias key 0 * 2 + 2 == (1, 0) if the relation id went unchecked
        index = tail_index(np.array([[0, 0, 1], [1, 0, 0], [0, 1, 1]]))
        for key in ((0, 2), (2, 0), (-1, 1), (0, -1), (2 ** 62, 0), (0, 2 ** 70)):
            assert index.get(key) is None
            assert key not in index
        assert index.get("not a pair") is None
        assert index.find([0, 1, 0], [2, 0, 7]).tolist() == [-1, 2, -1]

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            tail_index(np.array([[0, -1, 1]]))

    def test_train_index_is_head_pairs_without_duplicates(self):
        kg = make_graph(20, 3, 80, seed=4)
        train = np.concatenate([kg.train, kg.train[:10]])
        kg = graph_from_triples(train, 20, 3)
        index, pairs = tail_index(kg.train), kg.head_pairs
        np.testing.assert_array_equal(index.key, pairs.key)
        for p, key in enumerate(index):
            members = pairs.member[pairs.indptr[p]:pairs.indptr[p + 1]]
            np.testing.assert_array_equal(index[key], np.unique(members))


class TestStats:
    def test_dataset_stats(self):
        kg = graph_from_triples(
            [(0, 0, 1), (1, 0, 2), (2, 0, 0), (0, 0, 2)], 3, 1, n_test=1)
        stats = dataset_stats(kg)
        assert stats["n_entities"] == 3
        assert stats["n_train"] == 3 and stats["n_test"] == 1
        assert stats["mean_degree"] == pytest.approx(1.0)

    def test_degree_histogram(self):
        kg = graph_from_triples([(0, 0, 1), (0, 0, 2), (1, 0, 2)], 4, 1)
        assert degree_histogram(kg) == {0: 2, 1: 1, 2: 1}


class TestCache:
    def test_roundtrip(self, tmp_path):
        kg = add_reciprocal(make_graph(30, 3, 90, seed=5, n_valid=4, n_test=6))
        path = tmp_path / "graph.bin"
        save_cache(kg, path)
        back = load_cache(path)
        assert back.entities == kg.entities
        assert back.relations == kg.relations
        assert back.augmented == kg.augmented
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(getattr(back, split), getattr(kg, split))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DatasetFormatError, match="magic"):
            load_cache(path)

    def test_truncated_file(self, tmp_path):
        kg = make_graph(10, 2, 20, seed=1)
        path = tmp_path / "graph.bin"
        save_cache(kg, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(DatasetFormatError):
            load_cache(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda blob: blob.replace(b"v1", b"\xff1"), "UTF-8"),
        (lambda blob: blob + b"\x00", "trailing bytes"),
        (lambda blob: blob[:blob.index(b"v1") + 1], "truncated name"),
    ])
    def test_corrupt_cache_is_format_error(self, tmp_path, corrupt, message):
        path = tmp_path / "graph.bin"
        save_cache(graph_from_triples([(0, 0, 1), (1, 0, 2)], 3, 1), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(DatasetFormatError, match=message):
            load_cache(path)

    @pytest.mark.parametrize("count", [2 ** 62, 2 ** 64 - 1, 10 ** 6])
    def test_counts_past_the_file_size(self, tmp_path, count):
        path = tmp_path / "graph.bin"
        save_cache(graph_from_triples([(0, 0, 1), (1, 0, 2)], 3, 1), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Q", blob, 28, count)   # n_train follows magic, version,
        path.write_bytes(bytes(blob))             # augmented, |V| and |R|
        with pytest.raises(DatasetFormatError, match="header declares"):
            load_cache(path)

    def test_unicode_names_survive(self, tmp_path):
        kg = KnowledgeGraph(["köln", "東京"], ["liegt_in"],
                            np.array([[0, 0, 1]]),
                            np.empty((0, 3), dtype=np.int64),
                            np.empty((0, 3), dtype=np.int64))
        path = tmp_path / "graph.bin"
        save_cache(kg, path)
        assert load_cache(path).entities == ["köln", "東京"]
