"""Model state, memorization, scoring, gradients, optimizer, and the trainer."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import expit

from conftest import (dense_target_loss, dict_tail_index, graph_from_triples,
                      make_graph, memorize_matrix_form, serial_sign_tiles)
from hdkg import model
from hdkg.errors import ShapeError, StalenessError, NumericError
from hdkg.hdc import BaseMatrix, encode
from hdkg.kg import tail_index
from hdkg.model import (
    BACKWARD_MODES,
    Gradients,
    ModelState,
    Optimizer,
    OptimizerConfig,
    ScoreSignals,
    TrainConfig,
    Trainer,
    backward,
    chunked_backward,
    loss_and_delta,
    memorize_edge_list,
    relation_sums,
    score_batch,
)
from hdkg.ranking import ScoringView, rank_queries

# Frozen init draws for seed=7, d=2: three entity rows then two relation rows
# from the same stream (SeedSequence(7, spawn_key=(1,)) -> uniform(-0.1, 0.1)),
# reproduced with plain numpy independent of this package.
GOLDEN_EV = np.array([
    [-0.00388359885283765, -0.08809163866569157],
    [-0.05546221200180684, -0.0732917995477393],
    [-0.08110284411922737, -0.02425108892618913],
])
GOLDEN_ER = np.array([
    [-0.02924794972536485, 0.07430662843741456],
    [-0.02348443109255757, -0.07963356700641565],
])


def tiny_graph():
    # 0 --r0--> 1, 0 --r1--> 2, 1 --r0--> 2; vertex 2 has no out-edges
    return graph_from_triples([(0, 0, 1), (0, 1, 2), (1, 0, 2)], 3, 2)


def fresh_state(kg, d=4, D=16, seed=7, **kwargs):
    state = ModelState.create(kg.n_entities, kg.n_relations, d=d, D=D,
                              seed=seed, **kwargs)
    return state.refresh(kg)


class TestModelState:
    def test_init_matches_frozen_draws(self):
        state = ModelState.create(3, 2, d=2, D=4, seed=7)
        np.testing.assert_allclose(state.e_v, GOLDEN_EV, rtol=0, atol=1e-15)
        np.testing.assert_allclose(state.e_r, GOLDEN_ER, rtol=0, atol=1e-15)
        assert state.bias == 0.0
        assert not state.mv_fresh

    def test_refresh_encodes_and_memorizes(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        basemat = state.base.data
        np.testing.assert_allclose(state.H_v, np.tanh(state.e_v @ basemat))
        np.testing.assert_allclose(state.H_r, np.tanh(state.e_r @ basemat))
        np.testing.assert_array_equal(state.H_v, encode(state.e_v, state.base))
        assert state.mv_fresh

    def test_create_accepts_only_the_neg_sign(self):
        state = ModelState.create(3, 2, d=2, D=4, seed=7, score_sign="neg")
        assert not hasattr(state, "score_sign")
        with pytest.raises(ValueError, match="score_sign"):
            ModelState.create(3, 2, d=2, D=4, seed=7, score_sign="pos")

    def test_create_accepts_only_tanh(self):
        state = ModelState.create(3, 2, d=2, D=4, seed=7, activation="tanh")
        assert not hasattr(state, "activation")
        with pytest.raises(ValueError, match="activation must be 'tanh'"):
            ModelState.create(3, 2, d=2, D=4, seed=7, activation="identity")

    def test_mark_stale(self):
        state = fresh_state(tiny_graph())
        state.mark_stale()
        assert not state.mv_fresh


class TestMemorize:
    def test_hand_oracle(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        H, R = state.H_v, state.H_r
        M, G = memorize_edge_list(kg, H, R), relation_sums(kg, R)
        np.testing.assert_allclose(M[0], H[1] * R[0] + H[2] * R[1], atol=1e-12)
        np.testing.assert_allclose(M[1], H[2] * R[0], atol=1e-12)
        np.testing.assert_allclose(M[2], np.zeros(state.base.D), atol=0)
        np.testing.assert_allclose(G[0], R[0] + R[1], atol=1e-12)
        np.testing.assert_allclose(G[1], R[0], atol=1e-12)
        np.testing.assert_allclose(G[2], np.zeros(state.base.D), atol=0)

    def test_duplicate_edges_accumulate(self):
        kg = graph_from_triples([(0, 0, 1), (0, 0, 1)], 2, 1)
        state = fresh_state(kg)
        M = memorize_edge_list(kg, state.H_v, state.H_r)
        G = relation_sums(kg, state.H_r)
        np.testing.assert_allclose(M[0], 2 * state.H_v[1] * state.H_r[0], atol=1e-12)
        np.testing.assert_allclose(G[0], 2 * state.H_r[0], atol=1e-12)

    def test_matrix_form_agrees(self):
        kg = make_graph(20, 4, 80, seed=9, allow_dup=True)
        state = fresh_state(kg, d=6, D=32)
        M1 = memorize_edge_list(kg, state.H_v, state.H_r)
        M2 = memorize_matrix_form(kg, state.H_v, state.H_r)
        assert np.abs(M1 - M2).max() <= 1e-10

    def test_shape_checks(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        with pytest.raises(ShapeError):
            memorize_edge_list(kg, state.H_v[:2], state.H_r)


class TestRelationSums:
    """G[i] = sum of H_r[r] over i's out-edges, built only by the hardware backward."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("graph", ["pairs", "random"])
    def test_bit_for_bit_per_edge_sums_in_adjacency_order(self, dtype, graph):
        # A per-edge loop in (head, rel, tail) order adds each head's relation
        # rows in the order of its out-edges, as the incidence product does.
        kg = pair_graph() if graph == "pairs" else make_graph(25, 4, 90, seed=3,
                                                               allow_dup=True)
        state = fresh_state(kg, d=3, D=8, seed=2, dtype=dtype)
        G = relation_sums(kg, state.H_r)
        assert G.dtype == dtype
        np.testing.assert_array_equal(G, per_edge_memory(kg, state.H_v, state.H_r)[1])

    def test_state_keeps_no_relation_sums(self):
        state = fresh_state(pair_graph())
        assert not hasattr(state, "G")

    def test_only_the_hardware_backward_builds_them(self, monkeypatch):
        from hdkg.robustness import FixedPointSpec, quantized_view
        from hdkg.ranking import ScoringView, rank_queries
        kg = make_graph(20, 3, 60, seed=5)
        state = fresh_state(kg, d=4, D=16, seed=5)
        calls = []

        def refuse(*args):
            calls.append(args)
            raise AssertionError("relation sums built outside the hardware backward")

        monkeypatch.setattr(model, "relation_sums", refuse)
        cfg = TrainConfig(batch_size=16, chunk_T=8, mode="reference")
        Trainer(state, kg, cfg, seed=5).train_epoch()
        state.refresh(kg)
        rank_queries(ScoringView.from_state(state), kg.train[:10], tail_index(kg.train))
        quantized_view(state, kg, FixedPointSpec(12, 6))
        assert not calls
        cfg.mode = "hardware"
        with pytest.raises(AssertionError, match="outside the hardware"):
            Trainer(state, kg, cfg, seed=5).train_epoch()
        assert len(calls) == 1


def pair_graph():
    """Duplicate triples, self-loops, a relation without edges (3), vertices
    without out-edges (4 and the isolated 6); with three pairs per chunk the
    chunk boundary splits vertex 1's head pairs."""
    triples = [(0, 0, 1), (0, 0, 1), (0, 0, 2), (0, 1, 3), (1, 0, 5), (1, 1, 4),
               (1, 2, 0), (2, 1, 2), (3, 0, 3), (3, 2, 1), (5, 1, 0)]
    return graph_from_triples(triples, 7, 4)


def per_edge_memory(kg, H_v, H_r):
    """M and G from a per-edge loop over the train triples in (head, rel, tail) order."""
    M, G = np.zeros_like(H_v), np.zeros_like(H_v)
    order = np.lexsort(kg.train[:, ::-1].T)
    for h, r, t in kg.train[order].tolist():
        M[h] += H_v[t] * H_r[r]
        G[h] += H_r[r]
    return M, G


def per_edge_memory_gradients(kg, gM, H_v, H_r, gHr_direct):
    gHv, gHr = np.zeros_like(H_v), gHr_direct.copy()
    for h, r, t in kg.train.tolist():
        gHv[t] += gM[h] * H_r[r]
        gHr[r] += gM[h] * H_v[t]
    return gHv, gHr


@pytest.mark.parametrize("chunk", [1, 3, model.PAIR_CHUNK])
class TestPairKernel:
    """The pair kernel against a plain per-edge loop, at several pair-chunk sizes."""

    def test_memory_matches_per_edge_oracle(self, monkeypatch, chunk):
        monkeypatch.setattr(model, "PAIR_CHUNK", chunk)
        kg = pair_graph()
        assert kg.head_pairs.vertex[2] == kg.head_pairs.vertex[3] == 1
        state = fresh_state(kg, d=3, D=8, seed=2)
        M = memorize_edge_list(kg, state.H_v, state.H_r)
        G = relation_sums(kg, state.H_r)
        M_want, G_want = per_edge_memory(kg, state.H_v, state.H_r)
        np.testing.assert_allclose(M, M_want, rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(G, G_want)
        assert not M[[4, 6]].any() and not G[[4, 6]].any()

    def test_reference_gradients_match_per_edge_oracle(self, monkeypatch, chunk):
        monkeypatch.setattr(model, "PAIR_CHUNK", chunk)
        kg = pair_graph()
        state = fresh_state(kg, d=3, D=8, seed=2)
        subjects, rels = np.array([0, 1, 3, 6]), np.array([0, 2, 3, 1])
        sig = score_batch(state, subjects, rels)
        _, delta = loss_and_delta(sig, [[1, 2], [0], [], [4]], kg.n_entities)
        grads, info = chunked_backward(state, kg, sig, delta, T=4,
                                       return_internals=True)
        gM = info["gM_candidates"].copy()
        np.add.at(gM, subjects, info["gQ"])
        gHv, gHr = per_edge_memory_gradients(kg, gM, state.H_v, state.H_r,
                                             info["gHr_direct"])
        np.testing.assert_allclose(info["gHv"], gHv, rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(info["gHr"], gHr, rtol=1e-12, atol=1e-18)
        # relation 3 has no edges: only the query scatter reaches it
        np.testing.assert_array_equal(info["gHr"][3], info["gHr_direct"][3])
        basemat_t = state.base.data.T
        np.testing.assert_allclose(
            grads.e_v, (gHv * (1.0 - state.H_v ** 2)) @ basemat_t,
            rtol=1e-10, atol=1e-18)
        np.testing.assert_allclose(
            grads.e_r, (gHr * (1.0 - state.H_r ** 2)) @ basemat_t,
            rtol=1e-10, atol=1e-18)


class TestScoreBatch:
    def test_raw_is_bias_minus_l1(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        state.bias = 0.75
        state.refresh(kg)
        sig = score_batch(state, [0, 1], [1, 0])
        Q0 = state.M_v[0] + state.H_r[1]
        expected = 0.75 - np.abs(Q0 - state.M_v[2]).sum()
        assert sig.raw[0, 2] == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(sig.P, 1.0 / (1.0 + np.exp(-sig.raw)), atol=1e-12)

    def test_stale_state_rejected(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        state.mark_stale()
        with pytest.raises(StalenessError):
            score_batch(state, [0], [0])

    def test_cached_signs_match_recomputation(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        sig = score_batch(state, [0, 2], [1, 0], cache_signs=True)
        expected = np.sign(sig.Q[:, None, :] - state.M_v[None, :, :])
        np.testing.assert_array_equal(sig.S, expected.astype(np.int8))

    def test_id_range_checks(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        with pytest.raises(ValueError):
            score_batch(state, [5], [0])
        with pytest.raises(ValueError):
            score_batch(state, [0], [9])

    def test_nan_memory_row_raises(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        state.M_v[1] = np.nan
        with pytest.raises(NumericError, match="row 0"):
            score_batch(state, [0, 2], [1, 0])

    def test_infinite_relation_hypervector_raises(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        state.H_r[0, 3] = np.inf
        with pytest.raises(NumericError, match="row 1"):
            score_batch(state, [0, 2], [1, 0], cache_signs=True)


class TestSigns:
    """The comparison signs against np.sign of the difference."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_match_np_sign_on_a_tie_grid(self, dtype):
        info = np.finfo(dtype)
        grid = np.array([-info.max, -1.0, -0.5, -info.smallest_subnormal, -0.0,
                         0.0, info.smallest_subnormal, 0.5, 1.0, info.max], dtype=dtype)
        pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        Q = pairs[::3]
        M = np.concatenate([pairs, Q[:4], -Q[:4]])      # equal rows, and ±0.0 swapped
        got = model._signs(Q[:, None, :], M[None, :, :])
        with np.errstate(over="ignore"):
            want = np.sign(Q[:, None, :] - M[None, :, :])
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want)
        assert (got == 0).all(axis=2).any()              # whole-row ties
        assert (want == 0).sum() > want.size // 20       # and many single ones

    def test_nan_reads_as_a_tie(self):
        got = model._signs(np.array([np.nan, 1.0]), np.array([0.0, np.nan]))
        assert got.tolist() == [0, 0]


class TestLoss:
    def test_uniform_scores_give_log2(self):
        # raw == 0 means P == 0.5 everywhere, and BCE is ln 2 for any target
        V = 7
        sig = ScoreSignals(subjects=np.arange(3), rels=np.zeros(3, dtype=np.int64),
                           Q=np.zeros((3, 4)), raw=np.zeros((3, V)),
                           P=np.full((3, V), 0.5))
        loss, delta = loss_and_delta(sig, [[0], [1, 2], [3]], V, label_smoothing=0.0)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)
        assert delta[0, 0] == pytest.approx(-0.5 / (3 * V))
        assert delta[0, 1] == pytest.approx(0.5 / (3 * V))

    def test_label_smoothing_shifts_targets(self):
        V = 4
        sig = ScoreSignals(subjects=np.arange(1), rels=np.zeros(1, dtype=np.int64),
                           Q=np.zeros((1, 2)), raw=np.zeros((1, V)),
                           P=np.full((1, V), 0.5))
        eps = 0.1
        _, delta = loss_and_delta(sig, [[2]], V, label_smoothing=eps)
        y_pos = 1.0 * (1 - eps) + eps / V
        y_neg = eps / V
        assert delta[0, 2] == pytest.approx((0.5 - y_pos) / V)
        assert delta[0, 0] == pytest.approx((0.5 - y_neg) / V)

    def test_non_finite_loss_raises(self):
        sig = ScoreSignals(subjects=np.arange(1), rels=np.zeros(1, dtype=np.int64),
                           Q=np.zeros((1, 2)), raw=np.array([[np.inf, 0.0]]),
                           P=np.array([[1.0, 0.5]]))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            loss_and_delta(sig, [[1]], 2)

    def test_target_out_of_range(self):
        sig = ScoreSignals(subjects=np.arange(1), rels=np.zeros(1, dtype=np.int64),
                           Q=np.zeros((1, 2)), raw=np.zeros((1, 3)),
                           P=np.full((1, 3), 0.5))
        with pytest.raises(ValueError, match="row 0"):
            loss_and_delta(sig, [[7]], 3)

    def test_bad_smoothing_rejected(self):
        sig = ScoreSignals(subjects=np.arange(1), rels=np.zeros(1, dtype=np.int64),
                           Q=np.zeros((1, 2)), raw=np.zeros((1, 3)),
                           P=np.full((1, 3), 0.5))
        with pytest.raises(ValueError):
            loss_and_delta(sig, [[0]], 3, label_smoothing=1.0)

    def test_first_bad_row_is_named(self):
        sig = ScoreSignals(subjects=np.arange(3), rels=np.zeros(3, dtype=np.int64),
                           Q=np.zeros((3, 2)), raw=np.zeros((3, 4)),
                           P=np.full((3, 4), 0.5))
        with pytest.raises(ValueError, match="row 1"):
            loss_and_delta(sig, [[0], [1, 9], [-1]], 4)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_scatter_fill_matches_row_by_row_fill(self, eps):
        # Duplicate targets and empty rows, in both dtypes, bit for bit.
        gen = np.random.default_rng(5)
        B, V = 6, 11
        targets = [[3, 3, 0], np.array([10, 2, 10]), [], np.array([], dtype=np.int64),
                   (7,), np.array([1, 1, 1, 5])]
        for dtype in (np.float64, np.float32):
            sig = random_signals(gen, B, V, dtype)
            loss, delta = loss_and_delta(sig, targets, V, label_smoothing=eps)
            want_loss, want_delta = dense_target_loss(sig, targets, V, eps)
            assert loss == want_loss
            assert delta.dtype == want_delta.dtype == dtype
            np.testing.assert_array_equal(delta, want_delta)

    def test_peak_memory_is_two_score_matrices(self):
        # Slack covers the target index arrays and numpy's small temporaries.
        B, V = 64, 4000
        gen = np.random.default_rng(3)
        sig = random_signals(gen, B, V, np.float64)
        targets = [gen.integers(0, V, size=3) for _ in range(B)]
        score_matrix = B * V * 8
        tracemalloc.start()
        try:
            loss_and_delta(sig, targets, V)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * score_matrix + 64 * 1024, peak / score_matrix


def random_signals(gen, B, V, dtype):
    """Scores spread over the saturated and the linear range of the sigmoid."""
    raw = gen.normal(scale=20.0, size=(B, V)).astype(dtype)
    return ScoreSignals(subjects=np.arange(B), rels=np.zeros(B, dtype=np.int64),
                        Q=np.zeros((B, 2), dtype=dtype), raw=raw, P=expit(raw))


def analytic_grads(kg, state, subjects, rels, targets, ls=0.1, mode="reference",
                   T=None):
    sig = score_batch(state, subjects, rels)
    _, delta = loss_and_delta(sig, targets, kg.n_entities, label_smoothing=ls)
    if T is None:
        return backward(state, kg, sig, delta, mode=mode)
    return chunked_backward(state, kg, sig, delta, T=T, mode=mode)


def numeric_grads(kg, state, subjects, rels, targets, ls=0.1, h=1e-5):
    """Central finite differences through the full refresh-score-loss pipeline."""
    def loss_at(e_v, e_r, bias):
        probe = ModelState(base=state.base, e_v=e_v, e_r=e_r, bias=bias)
        probe.refresh(kg)
        sig = score_batch(probe, subjects, rels)
        loss, _ = loss_and_delta(sig, targets, kg.n_entities, label_smoothing=ls)
        return loss

    g_ev = np.zeros_like(state.e_v)
    for idx in np.ndindex(state.e_v.shape):
        for sign in (1.0, -1.0):
            e = state.e_v.copy()
            e[idx] += sign * h
            g_ev[idx] += sign * loss_at(e, state.e_r, state.bias)
    g_ev /= 2 * h

    g_er = np.zeros_like(state.e_r)
    for idx in np.ndindex(state.e_r.shape):
        for sign in (1.0, -1.0):
            e = state.e_r.copy()
            e[idx] += sign * h
            g_er[idx] += sign * loss_at(state.e_v, e, state.bias)
    g_er /= 2 * h

    g_b = (loss_at(state.e_v, state.e_r, state.bias + h)
           - loss_at(state.e_v, state.e_r, state.bias - h)) / (2 * h)
    return Gradients(e_v=g_ev, e_r=g_er, bias=g_b)


def max_rel_err(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / scale))


class TestBackward:
    def setup_method(self):
        self.kg = make_graph(6, 2, 14, seed=3)
        self.state = fresh_state(self.kg, d=3, D=8, seed=3)
        self.subjects = np.array([0, 1, 4])
        self.rels = np.array([0, 1, 0])
        index = tail_index(self.kg.train)
        self.targets = [index.get((int(s), int(r)), np.array([0]))
                        for s, r in zip(self.subjects, self.rels)]

    def test_reference_mode_matches_finite_differences(self):
        got = analytic_grads(self.kg, self.state, self.subjects, self.rels,
                             self.targets)
        want = numeric_grads(self.kg, self.state, self.subjects, self.rels,
                             self.targets)
        assert max_rel_err(got.e_v, want.e_v) < 1e-5
        assert max_rel_err(got.e_r, want.e_r) < 1e-5
        assert abs(got.bias - want.bias) / max(abs(want.bias), 1e-8) < 1e-6

    def test_chunk_width_does_not_change_gradients(self):
        full = analytic_grads(self.kg, self.state, self.subjects, self.rels,
                              self.targets)
        for T in (1, 3, 4, 6):
            part = analytic_grads(self.kg, self.state, self.subjects, self.rels,
                                  self.targets, T=T)
            assert np.abs(full.e_v - part.e_v).max() <= 1e-12
            assert np.abs(full.e_r - part.e_r).max() <= 1e-12
            assert full.bias == part.bias

    def test_cached_signs_reproduce_uncached_gradients(self):
        sig_cached = score_batch(self.state, self.subjects, self.rels,
                                 cache_signs=True)
        sig_plain = score_batch(self.state, self.subjects, self.rels)
        _, delta = loss_and_delta(sig_plain, self.targets, self.kg.n_entities)
        a = chunked_backward(self.state, self.kg, sig_cached, delta, T=4)
        b = chunked_backward(self.state, self.kg, sig_plain, delta, T=4)
        np.testing.assert_array_equal(a.e_v, b.e_v)
        np.testing.assert_array_equal(a.e_r, b.e_r)

    def test_internals_expose_scatter_identities(self):
        sig = score_batch(self.state, self.subjects, self.rels)
        _, delta = loss_and_delta(sig, self.targets, self.kg.n_entities)
        _, info = chunked_backward(self.state, self.kg, sig, delta, T=4,
                                   return_internals=True)
        # the relation scatter is exactly the sum of gQ rows per relation id
        for r in range(self.kg.n_relations):
            rows = info["gQ"][self.rels == r].sum(axis=0)
            np.testing.assert_allclose(info["gHr_direct"][r], rows, atol=1e-15)
        assert info["gM_candidates"].shape == (self.kg.n_entities, 8)

    def test_hardware_equals_reference_on_linear_self_loops(self):
        # On a pure self-loop graph the exact vertex gradient contracts to
        # gM * G, so the two modes agree on it before the encoder's tanh
        # derivative, which only the reference mode applies.
        kg = graph_from_triples([(i, i % 2, i) for i in range(5)], 5, 2)
        state = fresh_state(kg, d=3, D=8, seed=1)
        subjects = np.array([0, 3])
        rels = np.array([0, 1])
        sig = score_batch(state, subjects, rels)
        _, delta = loss_and_delta(sig, [[0], [3]], kg.n_entities)
        ref, ref_info = chunked_backward(state, kg, sig, delta, T=5,
                                         mode="reference", return_internals=True)
        hw, hw_info = chunked_backward(state, kg, sig, delta, T=5,
                                       mode="hardware", return_internals=True)
        np.testing.assert_allclose(hw_info["gHv"], ref_info["gHv"], rtol=0,
                                   atol=1e-12)
        assert np.abs(ref_info["gHv"]).max() > 1e-6
        assert hw.bias == ref.bias

    def test_rejects_bad_mode_and_chunk(self):
        sig = score_batch(self.state, self.subjects, self.rels)
        _, delta = loss_and_delta(sig, self.targets, self.kg.n_entities)
        with pytest.raises(ValueError):
            chunked_backward(self.state, self.kg, sig, delta, T=0)
        with pytest.raises(ValueError):
            chunked_backward(self.state, self.kg, sig, delta, T=2, mode="exotic")


def record_routes(monkeypatch):
    """Names of the sign-contraction routes chunked_backward takes, in call order."""
    ran = []
    for name in ("_dense_contraction", "_split_contraction"):
        def spy(*args, _original=getattr(model, name), _name=name, **kwargs):
            ran.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(model, name, spy)
    return ran


def split_case(regime, D=None, dtype=np.float64):
    """A batch whose delta has the named shape, D = 16 (128 when partial) by default.

    floor    every score underflows, so each row's off-positive cells sit at
             the label-smoothing floor and only the positives are residual
    partial  near-binary hypervectors and a bias at the 1% score quantile:
             a few off-positive cells carry gradient, the rest are floor
    ties     floor, with hypervectors on a coarse grid, relation 0 zeroed so
             its queries equal their subject's memory, and a repeated query
    dense    initial scores, every cell carries its own gradient
    """
    kg = make_graph(30, 3, 90, seed=4)
    index = tail_index(kg.train)
    subjects, rels = kg.train[:8, 0].copy(), kg.train[:8, 1].copy()
    D = D or (128 if regime == "partial" else 16)
    state = fresh_state(kg, d=6, D=D, seed=4, dtype=dtype)
    if regime == "floor":
        state.bias = -1e3
    elif regime == "partial":
        state.e_v *= 30
        state.e_r *= 30
        state.refresh(kg)
        norms = np.abs(score_batch(state, subjects, rels).raw)
        state.bias = np.quantile(norms, 0.01)
    elif regime == "ties":
        state.bias = -1e3
        state.H_v = np.round(state.H_v * 8) / 8
        state.H_r = np.round(state.H_r * 8) / 8
        state.H_r[0] = 0.0
        state.M_v = memorize_edge_list(kg, state.H_v, state.H_r)
        subjects[1], rels[1] = subjects[0], rels[0]
    targets = [index[(int(s), int(r))] for s, r in zip(subjects, rels)]
    return kg, state, subjects, rels, targets


def active_cells(delta):
    V = delta.shape[1]
    return int((delta != np.partition(delta, V // 2, axis=1)[:, [V // 2]]).sum())


class TestSplitContraction:
    """The row-constant-plus-residual contraction against the dense tiles.

    Forcing SPLIT_MAX_ACTIVE below zero makes every call take the dense
    tiles, which are the oracle.  The split only reassociates sums, so the
    tolerance is a few ulps of the largest entry.
    """

    RTOL = 1e-12

    def run_both(self, monkeypatch, kg, state, sig, delta, mode, T):
        with monkeypatch.context() as m:
            m.setattr(model, "SPLIT_MAX_ACTIVE", -1.0)
            want = chunked_backward(state, kg, sig, delta, T=kg.n_entities,
                                    mode=mode, return_internals=True)
        got = chunked_backward(state, kg, sig, delta, T=T, mode=mode,
                               return_internals=True)
        return got, want

    def assert_close(self, got, want):
        (g, gi), (w, wi) = got, want
        for name, a, b in (("e_v", g.e_v, w.e_v), ("e_r", g.e_r, w.e_r),
                           ("gM", gi["gM_candidates"], wi["gM_candidates"]),
                           ("gQ", gi["gQ"], wi["gQ"])):
            assert a.dtype == b.dtype
            assert np.abs(a - b).max() <= self.RTOL * np.abs(b).max(), name
        assert g.bias == w.bias

    # The ids name the score sign, bias minus distance ("neg").
    @pytest.mark.parametrize("regime,route", [
        ("floor", "_split_contraction"), ("partial", "_split_contraction"),
        ("ties", "_split_contraction"), ("dense", "_dense_contraction")],
        ids=["floor-_split_contraction-neg", "partial-_split_contraction-neg",
             "ties-_split_contraction-neg", "dense-_dense_contraction-neg"])
    def test_matches_dense_tiles(self, monkeypatch, regime, route):
        kg, state, subjects, rels, targets = split_case(regime)
        ran = record_routes(monkeypatch)
        positives = sum(len(t) for t in targets)
        for cache in (False, True):
            sig = score_batch(state, subjects, rels, cache_signs=cache)
            _, delta = loss_and_delta(sig, targets, kg.n_entities)
            n_active = active_cells(delta)
            if regime == "floor":
                assert n_active == positives
            elif regime == "partial":
                assert positives < n_active <= model.SPLIT_MAX_ACTIVE * delta.size
            for mode in BACKWARD_MODES:
                for T in (1, 7, kg.n_entities):
                    ran.clear()
                    got, want = self.run_both(monkeypatch, kg, state, sig, delta, mode, T)
                    assert ran == ["_dense_contraction", route]
                    self.assert_close(got, want)

    def test_ties_are_present(self):
        kg, state, subjects, rels, _ = split_case("ties")
        sig = score_batch(state, subjects, rels)
        diff = sig.Q[:, None, :] - state.M_v[None, :, :]
        assert (diff == 0).all(axis=2).any()          # whole-vector ties
        assert (diff == 0).sum() > diff.size // 10    # and many per-dimension ones
        np.testing.assert_array_equal(sig.Q[0], sig.Q[1])

    def test_cached_signs_are_exact_on_the_split_route(self, monkeypatch):
        kg, state, subjects, rels, targets = split_case("partial")
        ran = record_routes(monkeypatch)
        cached = score_batch(state, subjects, rels, cache_signs=True)
        plain = score_batch(state, subjects, rels)
        _, delta = loss_and_delta(plain, targets, kg.n_entities)
        for mode in BACKWARD_MODES:
            a = chunked_backward(state, kg, cached, delta, T=7, mode=mode)
            b = chunked_backward(state, kg, plain, delta, T=7, mode=mode)
            np.testing.assert_array_equal(a.e_v, b.e_v)
            np.testing.assert_array_equal(a.e_r, b.e_r)
        assert set(ran) == {"_split_contraction"}

    @pytest.mark.parametrize("regime", ["partial", "dense"])
    def test_no_label_smoothing_falls_back(self, monkeypatch, regime):
        # Without smoothing each negative's delta is its own P / (B V): no
        # two cells of a row share a value unless P underflows.
        kg, state, subjects, rels, targets = split_case(regime)
        ran = record_routes(monkeypatch)
        sig = score_batch(state, subjects, rels)
        _, delta = loss_and_delta(sig, targets, kg.n_entities, label_smoothing=0.0)
        assert active_cells(delta) > model.SPLIT_MAX_ACTIVE * delta.size
        chunked_backward(state, kg, sig, delta, T=7, mode="hardware")
        assert ran == ["_dense_contraction"]

    def test_float32_split_matches_dense_tiles(self, monkeypatch):
        kg = make_graph(30, 3, 90, seed=4)
        index = tail_index(kg.train)
        subjects, rels = kg.train[:8, 0].copy(), kg.train[:8, 1].copy()
        targets = [index[(int(s), int(r))] for s, r in zip(subjects, rels)]
        state = fresh_state(kg, d=6, D=16, seed=4, dtype=np.float32)
        state.bias = -1e3
        ran = record_routes(monkeypatch)
        sig = score_batch(state, subjects, rels)
        _, delta = loss_and_delta(sig, targets, kg.n_entities)
        got, want = self.run_both(monkeypatch, kg, state, sig, delta, "hardware", 7)
        assert ran == ["_dense_contraction", "_split_contraction"]
        assert got[0].e_v.dtype == np.float32
        for a, b in ((got[0].e_v, want[0].e_v), (got[1]["gM_candidates"],
                                                 want[1]["gM_candidates"])):
            assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()


def dense_outputs(state, kg, sig, delta, T, mode):
    """e_v, e_r, gM_candidates and gQ of one backward pass, in that order."""
    grads, info = chunked_backward(state, kg, sig, delta, T=T, mode=mode,
                                   return_internals=True)
    return grads.e_v, grads.e_r, info["gM_candidates"], info["gQ"]


class TestDenseTiles:
    """The threaded comparison-sign tiles against the serial np.sign tiles.

    Both only change how signs are made and which thread runs a tile, so
    the gradients must be equal bit for bit, not within a tolerance.
    SPLIT_MAX_ACTIVE below zero makes every call take the dense tiles;
    a SIGN_TILE of 4 gives several tiles, and rounds, per chunk.
    """

    @pytest.mark.parametrize("sign_tile", [4, 128])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("regime,D", [("dense", 16), ("dense", 33), ("dense", 1),
                                          ("ties", 16)])
    def test_equal_to_serial_np_sign_tiles(self, monkeypatch, regime, D, dtype,
                                           sign_tile):
        kg, state, subjects, rels, targets = split_case(regime, D=D, dtype=dtype)
        monkeypatch.setattr(model, "SPLIT_MAX_ACTIVE", -1.0)
        monkeypatch.setattr(model, "SIGN_TILE", sign_tile)
        for cache in (False, True):
            sig = score_batch(state, subjects, rels, cache_signs=cache)
            _, delta = loss_and_delta(sig, targets, kg.n_entities)
            for mode in BACKWARD_MODES:
                for T in (1, 7, 32, kg.n_entities):
                    got = dense_outputs(state, kg, sig, delta, T, mode)
                    with monkeypatch.context() as m:
                        m.setattr(model, "_dense_contraction", serial_sign_tiles)
                        want = dense_outputs(state, kg, sig, delta, T, mode)
                    for name, a, b in zip(("e_v", "e_r", "gM", "gQ"), got, want):
                        assert a.dtype == b.dtype == dtype, name
                        np.testing.assert_array_equal(a, b, err_msg=name)

    def test_bytes_do_not_depend_on_the_core_count(self, monkeypatch):
        kg, state, subjects, rels, targets = split_case("dense")
        monkeypatch.setattr(model, "SPLIT_MAX_ACTIVE", -1.0)
        monkeypatch.setattr(model, "SIGN_TILE", 4)
        sig = score_batch(state, subjects, rels)
        _, delta = loss_and_delta(sig, targets, kg.n_entities)
        view, index = ScoringView.from_state(state), tail_index(kg.train)
        queries, eval_batch = kg.train[:40], 16
        # Each stage maps its parts through one _parts call per entry.
        stages = {
            "query_scores": (1, lambda: model.query_scores(state, subjects, rels)),
            "rank_queries": (-(-len(queries) // eval_batch), lambda: (
                rank_queries(view, queries, index, batch_size=eval_batch),)),
        }
        for mode in BACKWARD_MODES:
            stages[mode] = (1, lambda mode=mode: dense_outputs(state, kg, sig, delta, 7, mode))

        part_threads, started = set(), []
        signs, dist, start = model._signs, model.cdist, threading.Thread.start

        def spy(fn):
            def wrapped(*args, **kwargs):
                part_threads.add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapped

        def spy_start(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(model, "_signs", spy(signs))
        monkeypatch.setattr(model, "cdist", spy(dist))
        monkeypatch.setattr(threading.Thread, "start", spy_start)
        for name, (calls, run) in stages.items():
            want = [a.tobytes() for a in run()]
            for cores in (1, model.PARTS, 64):
                monkeypatch.setattr(model, "_available_cores", lambda: cores)
                part_threads.clear()
                started.clear()
                got = [a.tobytes() for a in run()]
                assert got == want, (name, cores)
                assert threading.get_ident() in part_threads, (name, cores)
                assert len(part_threads) <= min(model.PARTS, cores), (name, cores)
                assert (len(part_threads) > 1) == (cores > 1), (name, cores)
                assert len(started) <= calls * (model.PARTS - 1), (name, cores)
                if cores == 1:
                    assert not started, name


class TestQueryScores:
    """Row blocks of Q, each scored by its own cdist call into one buffer,
    against one whole-batch cdist call: equal bit for bit, not within a
    tolerance."""

    @staticmethod
    def case(B, dtype):
        kg = make_graph(40, 3, 120, seed=5)
        state = fresh_state(kg, d=6, D=24, seed=5, dtype=dtype)
        state.bias = 0.25
        gen = np.random.default_rng(B)
        return (state, gen.integers(0, kg.n_entities, B),
                gen.integers(0, kg.n_relations, B))

    @staticmethod
    def one_cdist_call(view, subjects, rels):
        Q = view.M_v[subjects] + view.H_r[rels]
        norms = cdist(Q, view.M_v, metric="cityblock").astype(view.M_v.dtype, copy=False)
        return Q, np.subtract(view.bias, norms, out=norms)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("B", sorted({0, 1, model.PARTS - 1, 3, 128}))
    def test_equal_to_one_cdist_call(self, B, dtype):
        state, subjects, rels = self.case(B, dtype)
        got = model.query_scores(state, subjects, rels)
        want = self.one_cdist_call(state, subjects, rels)
        for name, a, b in zip(("Q", "raw"), got, want):
            assert a.dtype == b.dtype == dtype, name
            assert a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("B", sorted({1, model.PARTS - 1, 3, 128}))
    def test_non_finite_score_names_the_first_bad_row(self, B, dtype):
        state, subjects, rels = self.case(B, dtype)
        state.H_r[rels[-1], 2] = np.inf
        with np.errstate(invalid="ignore"):
            raw = self.one_cdist_call(state, subjects, rels)[1]
        row = (~np.isfinite(raw)).any(axis=1).argmax()
        with pytest.raises(NumericError, match=f"non-finite score in batch row {row}$"):
            model.query_scores(state, subjects, rels)


class TestParts:
    """The partition helper: results in index order, part 0 on the caller,
    every part finished before the call returns or raises."""

    def test_index_order_with_more_parts_than_cores(self, monkeypatch):
        monkeypatch.setattr(model, "PARTS", 7)
        monkeypatch.setattr(model, "_available_cores", lambda: 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with model._parts() as run:
                for n in (0, 1, 3, 7, 20):
                    got = run(lambda i: (i, threading.get_ident()), n)
                    assert [i for i, _ in got] == list(range(n))
                    if n:
                        assert got[0][1] == threading.get_ident()
                    assert len({t for _, t in got}) <= model.PARTS
            for B in (3, 128):
                state, subjects, rels = TestQueryScores.case(B, np.float64)
                got = model.query_scores(state, subjects, rels)
                want = TestQueryScores.one_cdist_call(state, subjects, rels)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_part_raises_after_every_part_ran(self, monkeypatch, failing):
        monkeypatch.setattr(model, "_available_cores", lambda: 64)
        ran = []

        def part(i):
            if i == failing:
                raise ValueError(f"part {i}")
            time.sleep(0.01)
            ran.append(i)

        with pytest.raises(ValueError, match=f"part {failing}"):
            with model._parts() as run:
                run(part, model.PARTS)
        assert sorted(ran) == [i for i in range(model.PARTS) if i != failing]


class TestOptimizer:
    def test_sgd_step(self):
        state = fresh_state(tiny_graph(), d=2, D=4)
        before = state.e_v.copy()
        g = Gradients(e_v=np.ones_like(state.e_v),
                      e_r=np.zeros_like(state.e_r), bias=2.0)
        Optimizer(OptimizerConfig(lr=0.1)).step(state, g)
        np.testing.assert_allclose(state.e_v, before - 0.1, atol=1e-15)
        assert state.bias == pytest.approx(-0.2)
        assert not state.mv_fresh

    def test_momentum_accumulates(self):
        state = fresh_state(tiny_graph(), d=2, D=4)
        before = state.e_v.copy()
        opt = Optimizer(OptimizerConfig(lr=1.0, momentum=0.5))
        g = Gradients(e_v=np.ones_like(state.e_v),
                      e_r=np.zeros_like(state.e_r), bias=0.0)
        opt.step(state, g)
        opt.step(state, g)
        # steps: 1, then 0.5*1 + 1 = 1.5
        np.testing.assert_allclose(state.e_v, before - 2.5, atol=1e-12)

    def test_adaptive_first_step_is_lr_signed(self):
        state = fresh_state(tiny_graph(), d=2, D=4)
        before = state.e_v.copy()
        g = Gradients(e_v=np.full_like(state.e_v, 3.0),
                      e_r=np.zeros_like(state.e_r), bias=0.0)
        Optimizer(OptimizerConfig(lr=0.2, adaptive=True)).step(state, g)
        np.testing.assert_allclose(state.e_v, before - 0.2, rtol=1e-8)

    def test_frozen_bias(self):
        state = fresh_state(tiny_graph(), d=2, D=4)
        g = Gradients(e_v=np.zeros_like(state.e_v),
                      e_r=np.zeros_like(state.e_r), bias=5.0)
        Optimizer(OptimizerConfig(lr=0.1, bias_trainable=False)).step(state, g)
        assert state.bias == 0.0

    @pytest.mark.parametrize("bad", ["e_v", "e_r", "bias"])
    def test_non_finite_gradient_raises_before_update(self, bad):
        state = fresh_state(tiny_graph(), d=2, D=4)
        before = (state.e_v.copy(), state.e_r.copy(), state.bias)
        g = Gradients(e_v=np.ones_like(state.e_v), e_r=np.ones_like(state.e_r),
                      bias=1.0)
        if bad == "bias":
            g.bias = math.nan
        else:
            getattr(g, bad)[1, 0] = math.inf
        with pytest.raises(NumericError, match=f"gradient for {bad}"):
            Optimizer(OptimizerConfig(lr=0.1, adaptive=True)).step(state, g)
        np.testing.assert_array_equal(state.e_v, before[0])
        np.testing.assert_array_equal(state.e_r, before[1])
        assert state.bias == before[2] and state.mv_fresh

    @pytest.mark.parametrize("bad", ["e_v", "e_r", "bias"])
    def test_update_that_overflows_a_parameter_raises(self, bad):
        state = fresh_state(tiny_graph(), d=2, D=4)
        g = Gradients(e_v=np.zeros_like(state.e_v), e_r=np.zeros_like(state.e_r),
                      bias=0.0)
        # Finite lr and gradient whose product overflows one coordinate.
        if bad == "bias":
            state.bias, g.bias = 1e308, -1.0
        else:
            getattr(state, bad)[1, 0], getattr(g, bad)[1, 0] = 1e308, -1.0
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match=f"non-finite value in {bad} after the update"):
            Optimizer(OptimizerConfig(lr=1e308)).step(state, g)


class TestTrainer:
    def test_batch_targets_are_the_known_train_tails(self, monkeypatch):
        kg = make_graph(15, 3, 45, seed=2)
        kg = graph_from_triples(np.concatenate([kg.train, kg.train[:9]]), 15, 3)
        oracle = dict_tail_index(kg.train)
        seen = []

        def spy(signals, targets, n_candidates, label_smoothing):
            for h, r, tails in zip(signals.subjects, signals.rels, targets):
                seen.append(len(tails))
                np.testing.assert_array_equal(tails, oracle[(int(h), int(r))])
            return loss_and_delta(signals, targets, n_candidates, label_smoothing)

        monkeypatch.setattr(model, "loss_and_delta", spy)
        state = ModelState.create(15, 3, d=4, D=16, seed=2)
        Trainer(state, kg, TrainConfig(batch_size=16), seed=2).train_epoch()
        assert len(seen) == len(kg.train)

    def test_deterministic_across_runs(self):
        kg = make_graph(15, 3, 45, seed=2)
        results = []
        for _ in range(2):
            state = ModelState.create(kg.n_entities, kg.n_relations,
                                      d=4, D=32, seed=2)
            trainer = Trainer(state, kg, TrainConfig(batch_size=16, chunk_T=5),
                              seed=2)
            losses = [trainer.train_epoch()["loss"] for _ in range(3)]
            results.append((losses, state.e_v.tobytes(), state.bias))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]

    def test_loss_decreases_with_adaptive_full_batch(self):
        kg = make_graph(20, 3, 80, seed=6)
        state = ModelState.create(kg.n_entities, kg.n_relations, d=8, D=64, seed=6)
        cfg = TrainConfig(batch_size=256, chunk_T=8,
                          optimizer=OptimizerConfig(lr=0.01, adaptive=True))
        trainer = Trainer(state, kg, cfg, seed=6)
        losses = [trainer.train_epoch()["loss"] for _ in range(12)]
        assert losses[-1] < losses[0]
        assert all(l2 <= l1 + 1e-9 for l1, l2 in zip(losses, losses[1:]))

    def test_epoch_report_shape(self):
        kg = make_graph(10, 2, 30, seed=1)
        state = ModelState.create(kg.n_entities, kg.n_relations, d=4, D=16, seed=1)
        trainer = Trainer(state, kg, TrainConfig(batch_size=8), seed=1)
        report = trainer.train_epoch()
        assert report["epoch"] == 1
        assert report["batches"] == 4  # ceil(30 / 8)
        assert set(report["stage_seconds"]) == {
            "refresh", "score", "loss", "backward", "update"}

    def test_hardware_mode_trains(self):
        kg = make_graph(12, 2, 36, seed=8)
        state = ModelState.create(kg.n_entities, kg.n_relations, d=4, D=32, seed=8)
        cfg = TrainConfig(batch_size=64, mode="hardware",
                          optimizer=OptimizerConfig(lr=0.05, adaptive=True))
        trainer = Trainer(state, kg, cfg, seed=8)
        first = trainer.train_epoch()["loss"]
        for _ in range(10):
            last = trainer.train_epoch()["loss"]
        assert np.isfinite(last)
        assert last != first
