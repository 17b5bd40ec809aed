"""Ranking, aggregate metrics, memory readout, and metric file formats."""

import numpy as np
import pytest

from conftest import dict_tail_index, graph_from_triples, make_graph
from hdkg.errors import NumericError, ShapeError, StalenessError
from hdkg.kg import tail_index
from hdkg.model import ModelState, score_batch
from hdkg.ranking import (
    METRICS_CSV_FIELDS,
    ScoringView,
    append_metrics_jsonl,
    metrics,
    rank_queries,
    raw_scores,
    reconstruct_neighbors,
    write_metrics_csv,
    write_metrics_json,
)


def hand_view():
    # candidates 1 and 2 tie for the query (0, 0); 0 and 3 tie behind them
    M = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    H_r = np.array([[1.0, 0.0]])
    return ScoringView(M_v=M, H_r=H_r, bias=0.0)


class TestRawScores:
    def test_hand_oracle(self):
        view = hand_view()
        raw = raw_scores(view, np.array([0]), np.array([0]))
        # Q = [1, 0]; L1 distances to the four rows: 1, 0, 0, 1
        np.testing.assert_allclose(raw, [[-1.0, 0.0, 0.0, -1.0]], atol=1e-15)

    def test_bias_shifts_everything(self):
        view = hand_view()
        view.bias = 2.5
        raw = raw_scores(view, np.array([0]), np.array([0]))
        np.testing.assert_allclose(raw, [[1.5, 2.5, 2.5, 1.5]], atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_training_and_eval_score_alike(self, dtype):
        kg = make_graph(25, 3, 80, seed=2)
        state = ModelState.create(25, 3, d=5, D=32, seed=2, dtype=dtype)
        state.bias = 0.375
        state.refresh(kg)
        subjects, rels = kg.train[:9, 0], kg.train[:9, 1]
        train = score_batch(state, subjects, rels).raw
        evaluate = raw_scores(ScoringView.from_state(state), subjects, rels)
        assert train.dtype == evaluate.dtype == dtype
        np.testing.assert_array_equal(train, evaluate)

    def test_stale_state_rejected(self):
        # The same error score_batch raises: the memory is not built yet.
        with pytest.raises(StalenessError, match="refreshed"):
            ScoringView.from_state(ModelState.create(3, 2, d=2, D=4, seed=0))


class TestRankQueries:
    def test_pessimistic_ties(self):
        view = hand_view()
        # target 1 ties with 2 at the top: pessimistic rank is 2
        ranks = rank_queries(view, np.array([[0, 0, 1]]), filtered=False)
        assert ranks.tolist() == [2]
        # target 3 sits behind the tied pair and ties with 0: rank 4
        ranks = rank_queries(view, np.array([[0, 0, 3]]), filtered=False)
        assert ranks.tolist() == [4]

    def test_filtering_masks_other_known_tails(self):
        view = hand_view()
        index = tail_index(np.array([[0, 0, 1], [0, 0, 2]]))
        ranks = rank_queries(view, np.array([[0, 0, 1]]), index, filtered=True)
        assert ranks.tolist() == [1]

    def test_filtering_never_masks_the_target(self):
        view = hand_view()
        index = tail_index(np.array([[0, 0, 1]]))
        ranks = rank_queries(view, np.array([[0, 0, 1]]), index, filtered=True)
        assert ranks.tolist() == [2]

    @pytest.mark.parametrize("batch_size", [1, 7, 128])
    def test_vectorised_filter_matches_per_row_masking(self, batch_size):
        # Integer-valued memory rows make exact score ties common.
        gen = np.random.default_rng(3)
        V, R = 25, 3
        view = ScoringView(M_v=gen.integers(0, 3, (V, 4)).astype(np.float64),
                           H_r=gen.integers(0, 2, (R, 4)).astype(np.float64), bias=0.5)
        splits = [np.stack([gen.integers(0, 8, n), gen.integers(0, R, n),
                            gen.integers(0, V, n)], axis=1) for n in (120, 15, 15)]
        # Random rows add queries that are not indexed, some with no known tail.
        random_rows = np.stack([gen.integers(0, 10, 20), gen.integers(0, R, 20),
                                gen.integers(0, V, 20)], axis=1)
        queries = np.concatenate([splits[2], splits[0][:40], random_rows])
        oracle = dict_tail_index(*splits)
        want = []
        for h, r, t in queries.tolist():
            scores = raw_scores(view, np.array([h]), np.array([r]))[0]
            known = oracle.get((h, r), np.empty(0, dtype=np.int64))
            scores[known[known != t]] = -np.inf
            want.append(1 + int((scores > scores[t]).sum())
                        + int((scores == scores[t]).sum()) - 1)
        got = rank_queries(view, queries, tail_index(*splits), batch_size=batch_size)
        assert got.tolist() == want

    def test_filtered_needs_index(self):
        with pytest.raises(ValueError, match="filter index"):
            rank_queries(hand_view(), np.array([[0, 0, 1]]), None, filtered=True)

    def test_batch_size_invariance(self):
        gen = np.random.default_rng(0)
        view = ScoringView(M_v=gen.normal(size=(30, 8)),
                           H_r=gen.normal(size=(3, 8)), bias=0.1)
        queries = np.stack([gen.integers(0, 30, 50),
                            gen.integers(0, 3, 50),
                            gen.integers(0, 30, 50)], axis=1)
        base = rank_queries(view, queries, filtered=False, batch_size=50)
        for bs in (1, 7, 128):
            got = rank_queries(view, queries, filtered=False, batch_size=bs)
            np.testing.assert_array_equal(got, base)

    def test_bad_query_shape(self):
        with pytest.raises(ShapeError):
            rank_queries(hand_view(), np.zeros((3, 2), dtype=np.int64),
                         filtered=False)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_target_score_raises(self, value):
        # A NaN target score equals nothing, itself included, so it would
        # rank at 0 and make the MRR infinite.
        kg = make_graph(25, 3, 80, seed=2)
        state = ModelState.create(25, 3, d=5, D=32, seed=2)
        state.refresh(kg)
        view = ScoringView.from_state(state)
        view.M_v[kg.train[0, 2], 0] = value
        with pytest.raises(NumericError, match="row 0"):
            rank_queries(view, kg.train[:5], tail_index(kg.train))


class TestMetrics:
    def test_oracle(self):
        out = metrics(np.array([1, 2, 10, 100]))
        assert out["mrr"] == pytest.approx((1 + 0.5 + 0.1 + 0.01) / 4)
        assert out["hits1"] == pytest.approx(0.25)
        assert out["hits3"] == pytest.approx(0.5)
        assert out["hits10"] == pytest.approx(0.75)

    def test_perfect_ranks(self):
        out = metrics(np.ones(5))
        assert out == {"mrr": 1.0, "hits1": 1.0, "hits3": 1.0, "hits10": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.array([]))


class TestReconstruct:
    def test_bound_pair_recovers_single_tail(self):
        kg = graph_from_triples([(0, 0, 1)], 3, 1)
        state = ModelState.create(3, 1, d=4, D=64, seed=2).refresh(kg)
        order, sims = reconstruct_neighbors(state, 0, relation=0)
        assert order[0] == 1
        assert sims[0] == pytest.approx(1.0)
        assert sims[0] >= sims[-1]

    def test_zero_memory_falls_back(self):
        kg = graph_from_triples([(0, 0, 1)], 3, 1)
        state = ModelState.create(3, 1, d=4, D=16, seed=2).refresh(kg)
        order, sims = reconstruct_neighbors(state, 2)  # vertex 2 is isolated
        assert len(order) == 3
        assert np.all(np.isfinite(sims))

    @pytest.mark.parametrize("zeroed", [[2], [0, 2]], ids=["one-zero", "one-live"])
    def test_zero_candidate_ranks_last_under_cosine(self, zeroed):
        kg = graph_from_triples([(0, 0, 1)], 3, 1)
        state = ModelState.create(3, 1, d=4, D=16, seed=2)
        state.e_v[zeroed] = 0.0
        order, sims = reconstruct_neighbors(state.refresh(kg), 0)
        n = len(zeroed)
        assert sorted(order[-n:].tolist()) == zeroed
        assert np.all(sims[-n:] == -np.inf)
        assert np.all(np.isfinite(sims[:-n]))

    def test_stale_state_rejected(self):
        kg = graph_from_triples([(0, 0, 1)], 2, 1)
        state = ModelState.create(2, 1, d=2, D=8, seed=0).refresh(kg)
        state.mark_stale()
        with pytest.raises(StalenessError):
            reconstruct_neighbors(state, 0)

    def test_deterministic_tie_order(self):
        kg = graph_from_triples([(0, 0, 1)], 4, 1)
        state = ModelState.create(4, 1, d=2, D=8, seed=3).refresh(kg)
        a, _ = reconstruct_neighbors(state, 2, metric="neg_l1")
        b, _ = reconstruct_neighbors(state, 2, metric="neg_l1")
        np.testing.assert_array_equal(a, b)


class TestMetricFiles:
    def test_json_golden(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics_json(path, {"mrr": 0.5, "split": "test"})
        assert path.read_text() == '{\n  "mrr": 0.5,\n  "split": "test"\n}\n'

    def test_jsonl_appends_sorted_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append_metrics_jsonl(path, {"epoch": 1, "loss": 0.5})
        append_metrics_jsonl(path, {"loss": 0.25, "epoch": 2})
        lines = path.read_text().splitlines()
        assert lines == ['{"epoch": 1, "loss": 0.5}', '{"epoch": 2, "loss": 0.25}']

    def test_csv_golden(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [{"split": "test", "mode": "full", "mrr": 0.25,
                                  "hits1": 0.1, "hits3": 0.2, "hits10": 0.5,
                                  "seed": 7, "config_hash": "abc123"}])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(METRICS_CSV_FIELDS)
        assert lines[1] == "test,full,0.25,0.1,0.2,0.5,7,abc123"

    def test_csv_missing_fields_blank(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [{"split": "valid", "mrr": 1.0}])
        assert path.read_text().splitlines()[1] == "valid,,1.0,,,,,"
