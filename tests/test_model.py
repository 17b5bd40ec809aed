"""Model state, memorization, scoring, gradients, optimizer, and the trainer."""

import math

import numpy as np
import pytest

from conftest import (dict_tail_index, graph_from_triples, make_graph,
                      memorize_matrix_form)
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
    score_batch,
)

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
        M, G = memorize_edge_list(kg, H, R)
        np.testing.assert_allclose(M[0], H[1] * R[0] + H[2] * R[1], atol=1e-12)
        np.testing.assert_allclose(M[1], H[2] * R[0], atol=1e-12)
        np.testing.assert_allclose(M[2], np.zeros(state.base.D), atol=0)
        np.testing.assert_allclose(G[0], R[0] + R[1], atol=1e-12)
        np.testing.assert_allclose(G[1], R[0], atol=1e-12)
        np.testing.assert_allclose(G[2], np.zeros(state.base.D), atol=0)

    def test_duplicate_edges_accumulate(self):
        kg = graph_from_triples([(0, 0, 1), (0, 0, 1)], 2, 1)
        state = fresh_state(kg)
        M, G = memorize_edge_list(kg, state.H_v, state.H_r)
        np.testing.assert_allclose(M[0], 2 * state.H_v[1] * state.H_r[0], atol=1e-12)
        np.testing.assert_allclose(G[0], 2 * state.H_r[0], atol=1e-12)

    def test_matrix_form_agrees(self):
        kg = make_graph(20, 4, 80, seed=9, allow_dup=True)
        state = fresh_state(kg, d=6, D=32)
        M1, _ = memorize_edge_list(kg, state.H_v, state.H_r)
        M2 = memorize_matrix_form(kg, state.H_v, state.H_r)
        assert np.abs(M1 - M2).max() <= 1e-10

    def test_shape_checks(self):
        kg = tiny_graph()
        state = fresh_state(kg)
        with pytest.raises(ShapeError):
            memorize_edge_list(kg, state.H_v[:2], state.H_r)


def pair_graph():
    """Duplicate triples, self-loops, a relation without edges (3), vertices
    without out-edges (4 and the isolated 6); with three pairs per chunk the
    chunk boundary splits vertex 1's head pairs."""
    triples = [(0, 0, 1), (0, 0, 1), (0, 0, 2), (0, 1, 3), (1, 0, 5), (1, 1, 4),
               (1, 2, 0), (2, 1, 2), (3, 0, 3), (3, 2, 1), (5, 1, 0)]
    return graph_from_triples(triples, 7, 4)


def per_edge_memory(kg, H_v, H_r):
    M, G = np.zeros_like(H_v), np.zeros_like(H_v)
    for h, r, t in kg.train.tolist():
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
        M, G = memorize_edge_list(kg, state.H_v, state.H_r)
        M_want, G_want = per_edge_memory(kg, state.H_v, state.H_r)
        np.testing.assert_allclose(M, M_want, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(G, G_want, rtol=1e-13, atol=1e-15)
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
        gen = np.random.default_rng(5)
        B, V = 6, 11
        raw = gen.normal(scale=3.0, size=(B, V))
        sig = ScoreSignals(subjects=np.arange(B), rels=np.zeros(B, dtype=np.int64),
                           Q=np.zeros((B, 2)), raw=raw, P=1.0 / (1.0 + np.exp(-raw)))
        targets = [[3, 3, 0], np.array([10, 2, 10]), [], np.array([], dtype=np.int64),
                   (7,), np.array([1, 1, 1, 5])]
        y = np.zeros((B, V))
        for j, tails in enumerate(targets):
            y[j, np.asarray(tails, dtype=np.int64)] = 1.0
        if eps:
            y = y * (1.0 - eps) + eps / V
        want_loss = float((np.logaddexp(0.0, raw) - y * raw).mean())
        loss, delta = loss_and_delta(sig, targets, V, label_smoothing=eps)
        assert loss == want_loss
        np.testing.assert_array_equal(delta, (sig.P - y) / (B * V))


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


def split_case(regime):
    """A batch whose delta has the named shape.

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
    D = 128 if regime == "partial" else 16
    state = fresh_state(kg, d=6, D=D, seed=4)
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
        state.M_v, state.G = memorize_edge_list(kg, state.H_v, state.H_r)
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
