"""Graph memorization, translational scoring, loss, and closed-form backward.

The model keeps one low-dimensional embedding row per vertex (e_v) and per
relation (e_r).  Everything else is derived: hypervectors H through the fixed
random projection, per-vertex memory through neighborhood memorization

    M[i] = sum over (j, r) in N(i) of H_v[j] * H_r[r]

and batch scores through a translational residual

    raw[j, c] = bias - | M[subject_j] + H_r[rel_j] - M[c] |_1
    P = sigmoid(raw)

so nearer candidates score higher.  The opposite sign convention (bias plus
the norm) is kept behind ``score_sign="pos"`` for comparison only.

Every walk of the graph goes through one "aggregate, then bind" kernel,
:func:`aggregate_bind`.  All tails j of a (head i, relation r) pair share the
factor H_r[r], so one sparse product first sums H_v over the pair's tails and
the bind then runs once per pair, not once per edge.  Memorization runs it
over the (head, relation) pairs; the reference backward runs it over the
(tail, relation) pairs to carry the memory gradient back to H_v and H_r.
Pairs go PAIR_CHUNK at a time, so no walk holds a temporary larger than
PAIR_CHUNK x D.  The per-relation matrix form stays only as an independent
check of the kernel.

Training updates only e_v, e_r and the bias.  Two backward modes exist:

  reference  exact gradients of the computation above, including the tanh
             derivative and every path (candidate-side, subject-side, and the
             relation contributions inside memorization).  Passes central
             finite-difference checks.
  hardware   the accelerator's simplification: the encoder is differentiated
             as if linear (just the transposed base matrix), the memory-to-
             hypervector step uses the cached per-vertex relation sum G, and
             the relation gradient reuses the subject-side gradient, skipping
             the memorization path.

Candidate columns are processed in chunks of T; results are independent of T
up to float summation order (identical when each vertex is touched by one
chunk, which holds for the candidate-side accumulations).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist
from scipy.special import expit

from . import rng
from .errors import NumericError, ShapeError, StalenessError
from .hdc import BaseMatrix, encode
from .kg import KnowledgeGraph, PairIndex, tail_index

INIT_SCALE = 0.1       # embeddings start uniform in [-INIT_SCALE, INIT_SCALE]
SIGN_TILE = 128        # candidate columns materialized at once in backward
PAIR_CHUNK = 2048      # (vertex, relation) pairs aggregated at once in graph walks

BACKWARD_MODES = ("reference", "hardware")
SCORE_SIGNS = ("neg", "pos")


@dataclass
class ModelState:
    """Trainable parameters plus derived tensors and their freshness flags."""

    base: BaseMatrix
    e_v: np.ndarray
    e_r: np.ndarray
    bias: float = 0.0
    activation: str = "tanh"
    score_sign: str = "neg"

    H_v: np.ndarray | None = field(default=None, repr=False)
    H_r: np.ndarray | None = field(default=None, repr=False)
    M_v: np.ndarray | None = field(default=None, repr=False)
    G: np.ndarray | None = field(default=None, repr=False)
    hv_fresh: bool = False
    mv_fresh: bool = False

    @classmethod
    def create(cls, n_entities: int, n_relations: int, d: int, D: int, seed: int,
               dtype=np.float64, activation: str = "tanh",
               score_sign: str = "neg") -> "ModelState":
        if n_entities <= 0 or n_relations <= 0:
            raise ValueError("entity and relation counts must be positive")
        if score_sign not in SCORE_SIGNS:
            raise ValueError(f"score_sign must be one of {SCORE_SIGNS}")
        base = BaseMatrix.create(d, D, seed)
        gen = rng.stream(seed, "init")
        e_v = gen.uniform(-INIT_SCALE, INIT_SCALE, size=(n_entities, d)).astype(dtype)
        e_r = gen.uniform(-INIT_SCALE, INIT_SCALE, size=(n_relations, d)).astype(dtype)
        return cls(base=base, e_v=e_v, e_r=e_r, activation=activation,
                   score_sign=score_sign)

    @property
    def dtype(self):
        return self.e_v.dtype

    def mark_stale(self):
        self.hv_fresh = False
        self.mv_fresh = False

    def refresh(self, kg: KnowledgeGraph):
        """Re-encode hypervectors and re-memorize the graph after updates."""
        basemat = self.base.data.astype(self.dtype, copy=False)
        self.H_v = _activate(self.e_v @ basemat, self.activation)
        self.H_r = _activate(self.e_r @ basemat, self.activation)
        self.hv_fresh = True
        self.M_v, self.G = memorize_edge_list(kg, self.H_v, self.H_r)
        self.mv_fresh = True
        return self


def _activate(projected, activation):
    if activation == "tanh":
        return np.tanh(projected)
    if activation == "identity":
        return projected
    raise ValueError(f"unknown activation {activation!r}")


def memorize_edge_list(kg: KnowledgeGraph, H_v: np.ndarray,
                       H_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex memory M and relation-sum G over the train adjacency.

    M[i] sums H_v[j] * H_r[r] over i's out-edges (j, r), aggregated per
    (head, relation) pair by :func:`aggregate_bind`.  G[i] sums the bare
    relation rows H_r[r] in adjacency order, as one product with the unit
    (V, R) incidence of the neighbor lists (duplicates kept, not summed), so
    a recomputation from the same inputs reproduces it exactly.
    """
    _check_hv(kg, H_v, H_r)
    M = np.zeros((kg.n_entities, H_v.shape[1]), dtype=H_v.dtype)
    aggregate_bind(kg.head_pairs, H_v, H_r, M)
    incidence = sp.csr_matrix(
        (np.ones(len(kg.nbr_rels), dtype=H_r.dtype), kg.nbr_rels, kg.nbr_indptr),
        shape=(kg.n_entities, kg.n_relations))
    return M, incidence @ H_r


def aggregate_bind(pairs: PairIndex, X: np.ndarray, H_r: np.ndarray, out: np.ndarray,
                   H_vertex: np.ndarray | None = None,
                   g_rel: np.ndarray | None = None) -> None:
    """Aggregate X over each pair's members, then bind once per pair.

    For every (vertex, relation) pair p, Y[p] = members[p] @ X sums X over
    p's members, and out[vertex[p]] gains Y[p] * H_r[rel[p]].  With
    ``g_rel``, g_rel[rel[p]] also gains Y[p] * H_vertex[vertex[p]].  Pairs
    are taken PAIR_CHUNK at a time, so every temporary is at most
    PAIR_CHUNK x D whatever the graph size.
    """
    for p0 in range(0, pairs.n_pairs, PAIR_CHUNK):
        p1 = min(p0 + PAIR_CHUNK, pairs.n_pairs)
        n = p1 - p0
        vertex, rel = pairs.vertex[p0:p1], pairs.rel[p0:p1]
        Y = pairs.members[p0:p1] @ X
        ones = np.ones(n, dtype=Y.dtype)
        if g_rel is not None:
            by_rel = sp.csc_matrix((ones, rel, np.arange(n + 1)), shape=(len(H_r), n))
            g_rel += by_rel @ (Y * H_vertex[vertex])
        Y *= H_r[rel]
        # Pairs are vertex-sorted, so the chunk's vertices form one id range.
        v0, v1 = vertex[0], vertex[-1] + 1
        by_vertex = sp.csr_matrix(
            (ones, np.arange(n), np.searchsorted(vertex, np.arange(v0, v1 + 1))),
            shape=(v1 - v0, n))
        out[v0:v1] += by_vertex @ Y


def memorize_matrix_form(kg: KnowledgeGraph, H_v: np.ndarray,
                         H_r: np.ndarray) -> np.ndarray:
    """Same memory as :func:`memorize_edge_list` via per-relation sparse products.

    M = sum over r of (A_r @ H_v) * H_r[r], with A_r the relation adjacency
    rebuilt from the train split on every call.  Kept as an independent
    route; agreement with the pair kernel is a correctness check, not an
    implementation detail.
    """
    _check_hv(kg, H_v, H_r)
    n, D = kg.n_entities, H_v.shape[1]
    M = np.zeros((n, D), dtype=H_v.dtype)
    for r in range(kg.n_relations):
        A = kg.relation_csr(r)
        if A.nnz == 0:
            continue
        M += (A @ H_v) * H_r[r]
    return M


def _check_hv(kg, H_v, H_r):
    if H_v.ndim != 2 or H_v.shape[0] != kg.n_entities:
        raise ShapeError(f"H_v must be ({kg.n_entities}, D), got {H_v.shape}")
    if H_r.ndim != 2 or H_r.shape[0] != kg.n_relations:
        raise ShapeError(f"H_r must be ({kg.n_relations}, D), got {H_r.shape}")
    if H_v.shape[1] != H_r.shape[1]:
        raise ShapeError("H_v and H_r disagree on D")


@dataclass
class ScoreSignals:
    """Forward products the backward pass consumes.

    S holds the residual signs per (batch member, candidate, dimension) as
    int8 when sign caching is on; otherwise signs are recomputed tile by tile
    from Q and M, which reproduces the cached values exactly.
    """

    subjects: np.ndarray
    rels: np.ndarray
    Q: np.ndarray
    raw: np.ndarray
    P: np.ndarray
    S: np.ndarray | None = None


def score_batch(state: ModelState, subjects, rels,
                cache_signs: bool = False) -> ScoreSignals:
    """Score every vertex as tail candidate for each (subject, relation) query."""
    if not state.mv_fresh:
        raise StalenessError("memory hypervectors are stale; call refresh() first")
    subjects = np.asarray(subjects, dtype=np.int64)
    rels = np.asarray(rels, dtype=np.int64)
    if subjects.shape != rels.shape or subjects.ndim != 1:
        raise ShapeError("subjects and rels must be equal-length 1-d arrays")
    if len(subjects) and (subjects.min() < 0 or subjects.max() >= len(state.M_v)):
        raise ValueError("subject id out of range")
    if len(rels) and (rels.min() < 0 or rels.max() >= len(state.H_r)):
        raise ValueError("relation id out of range")

    Q = state.M_v[subjects] + state.H_r[rels]
    norms = cdist(Q, state.M_v, metric="cityblock").astype(state.dtype, copy=False)
    if state.score_sign == "neg":
        raw = state.bias - norms
    else:
        raw = state.bias + norms
    P = expit(raw)
    S = None
    if cache_signs:
        S = np.sign(Q[:, None, :] - state.M_v[None, :, :]).astype(np.int8)
    return ScoreSignals(subjects=subjects, rels=rels, Q=Q, raw=raw, P=P, S=S)


def loss_and_delta(signals: ScoreSignals, targets, n_candidates: int,
                   label_smoothing: float = 0.1) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy against multi-hot targets, and d(loss)/d(raw).

    ``targets`` lists the positive tail ids per batch row; every other
    candidate is a negative.  With label smoothing epsilon the targets become
    y * (1 - eps) + eps / n_candidates.  The returned delta is
    (P - y) / (batch * candidates), the exact gradient of the mean loss with
    respect to the raw scores.
    """
    B = len(signals.subjects)
    y = np.zeros((B, n_candidates), dtype=signals.P.dtype)
    for j, tails in enumerate(targets):
        tails = np.asarray(tails, dtype=np.int64)
        if len(tails) and (tails.min() < 0 or tails.max() >= n_candidates):
            raise ValueError(f"target id out of range in row {j}")
        y[j, tails] = 1.0
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError("label_smoothing must be in [0, 1)")
    if label_smoothing:
        y = y * (1.0 - label_smoothing) + label_smoothing / n_candidates

    # softplus(raw) - y * raw, stable for large |raw|
    cells = np.logaddexp(0.0, signals.raw) - y * signals.raw
    loss = float(cells.mean())
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss: {loss}")
    delta = (signals.P - y) / (B * n_candidates)
    return loss, delta


@dataclass
class Gradients:
    e_v: np.ndarray
    e_r: np.ndarray
    bias: float


def backward(state: ModelState, kg: KnowledgeGraph, signals: ScoreSignals,
             delta: np.ndarray, mode: str = "reference") -> Gradients:
    """Monolithic backward pass; equivalent to one chunk spanning all candidates."""
    return chunked_backward(state, kg, signals, delta, T=delta.shape[1], mode=mode)


def chunked_backward(state: ModelState, kg: KnowledgeGraph, signals: ScoreSignals,
                     delta: np.ndarray, T: int, mode: str = "reference",
                     return_internals: bool = False):
    """Backward pass with candidate columns processed in chunks of width T.

    With ``return_internals`` the hypervector-space accumulators come back in
    a second dict: the candidate-side memory gradient before the subject
    scatter (``gM_candidates``), the per-query gradient (``gQ``), the
    relation rows it scatters into (``gHr_direct``), and the hypervector
    gradients ``gHv`` and ``gHr`` before the encoder's activation derivative.
    """
    if mode not in BACKWARD_MODES:
        raise ValueError(f"mode must be one of {BACKWARD_MODES}")
    if T <= 0:
        raise ValueError("chunk width T must be positive")
    B, V = delta.shape
    if V != len(state.M_v) or B != len(signals.subjects):
        raise ShapeError(f"delta shape {delta.shape} disagrees with batch/candidates")

    D = state.M_v.shape[1]
    query_sign = -1.0 if state.score_sign == "neg" else 1.0

    gM = np.zeros((V, D), dtype=state.dtype)
    gQ = np.zeros((B, D), dtype=state.dtype)
    for c0 in range(0, V, T):
        c1 = min(c0 + T, V)
        for t0 in range(c0, c1, SIGN_TILE):
            t1 = min(t0 + SIGN_TILE, c1)
            if signals.S is not None:
                sgn = signals.S[:, t0:t1, :].astype(state.dtype)
            else:
                sgn = np.sign(signals.Q[:, None, :] - state.M_v[None, t0:t1, :])
            # d raw / d Q = query_sign * sgn;  d raw / d M[c] = -query_sign * sgn
            gM[t0:t1] -= query_sign * np.einsum("jc,jck->ck", delta[:, t0:t1], sgn)
            gQ += query_sign * np.einsum("jc,jck->jk", delta[:, t0:t1], sgn)

    internals = None
    if return_internals:
        internals = {"gM_candidates": gM.copy(), "gQ": gQ}
    gHr = np.zeros_like(state.H_r)
    np.add.at(gM, signals.subjects, gQ)
    np.add.at(gHr, signals.rels, gQ)
    if return_internals:
        internals["gHr_direct"] = gHr.copy()
    grad_bias = float(delta.sum())

    if mode == "hardware":
        gHv = gM * state.G
    else:
        # Memorization path, walked from the tail side: each (tail, relation)
        # pair sums gM over its heads once, then binds it with H_r for the
        # tail's row and with H_v[tail] for the relation's row.
        gHv = np.zeros_like(state.H_v)
        aggregate_bind(kg.tail_pairs, gM, state.H_r, gHv,
                       H_vertex=state.H_v, g_rel=gHr)
    if return_internals:
        internals["gHv"], internals["gHr"] = gHv.copy(), gHr.copy()
    if mode == "reference" and state.activation == "tanh":
        gHv = gHv * (1.0 - state.H_v ** 2)
        gHr = gHr * (1.0 - state.H_r ** 2)
    basemat_t = state.base.data.T.astype(state.dtype, copy=False)
    grad_e_v = gHv @ basemat_t
    grad_e_r = gHr @ basemat_t
    grads = Gradients(e_v=grad_e_v, e_r=grad_e_r, bias=grad_bias)
    if return_internals:
        return grads, internals
    return grads


@dataclass
class OptimizerConfig:
    lr: float = 0.05
    momentum: float = 0.0
    adaptive: bool = False   # Adagrad-style per-coordinate scaling
    bias_trainable: bool = True
    eps: float = 1e-10


class Optimizer:
    """Plain SGD with optional momentum or per-coordinate adaptive scaling."""

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self._mom = {}
        self._accum = {}

    def _step_array(self, name, param, grad):
        cfg = self.cfg
        if cfg.adaptive:
            accum = self._accum.setdefault(name, np.zeros_like(param))
            accum += grad * grad
            grad = grad / (np.sqrt(accum) + cfg.eps)
        if cfg.momentum:
            mom = self._mom.setdefault(name, np.zeros_like(param))
            mom *= cfg.momentum
            mom += grad
            grad = mom
        param -= cfg.lr * grad

    def step(self, state: ModelState, grads: Gradients):
        self._step_array("e_v", state.e_v, grads.e_v.astype(state.dtype, copy=False))
        self._step_array("e_r", state.e_r, grads.e_r.astype(state.dtype, copy=False))
        if self.cfg.bias_trainable:
            if self.cfg.adaptive:
                acc = self._accum.setdefault("bias", 0.0) + grads.bias ** 2
                self._accum["bias"] = acc
                state.bias -= self.cfg.lr * grads.bias / (acc ** 0.5 + self.cfg.eps)
            else:
                state.bias -= self.cfg.lr * grads.bias
        state.mark_stale()


@dataclass
class TrainConfig:
    batch_size: int = 128
    chunk_T: int = 32
    mode: str = "reference"
    label_smoothing: float = 0.1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


class Trainer:
    """Drives epochs of 1-vs-all training over the train split."""

    def __init__(self, state: ModelState, kg: KnowledgeGraph, cfg: TrainConfig, seed: int):
        self.state = state
        self.kg = kg
        self.cfg = cfg
        self.optimizer = Optimizer(cfg.optimizer)
        self.shuffle_gen = rng.stream(seed, "batch-shuffle")
        self.tails = tail_index(kg.train)
        self.epoch = 0

    def train_epoch(self) -> dict:
        """One pass over shuffled train triples; returns loss and stage timings."""
        state, kg, cfg = self.state, self.kg, self.cfg
        order = self.shuffle_gen.permutation(len(kg.train))
        times = {"refresh": 0.0, "score": 0.0, "loss": 0.0, "backward": 0.0, "update": 0.0}
        total_loss, total_rows = 0.0, 0
        for b0 in range(0, len(order), cfg.batch_size):
            rows = kg.train[order[b0:b0 + cfg.batch_size]]
            t0 = time.perf_counter()
            if not state.mv_fresh:
                state.refresh(kg)
            t1 = time.perf_counter()
            signals = score_batch(state, rows[:, 0], rows[:, 1])
            t2 = time.perf_counter()
            targets = [self.tails[(int(h), int(r))] for h, r, _ in rows]
            loss, delta = loss_and_delta(signals, targets, kg.n_entities,
                                         label_smoothing=cfg.label_smoothing)
            t3 = time.perf_counter()
            grads = chunked_backward(state, kg, signals, delta,
                                     T=cfg.chunk_T, mode=cfg.mode)
            t4 = time.perf_counter()
            self.optimizer.step(state, grads)
            t5 = time.perf_counter()
            times["refresh"] += t1 - t0
            times["score"] += t2 - t1
            times["loss"] += t3 - t2
            times["backward"] += t4 - t3
            times["update"] += t5 - t4
            total_loss += loss * len(rows)
            total_rows += len(rows)
        self.epoch += 1
        return {
            "epoch": self.epoch,
            "loss": total_loss / max(total_rows, 1),
            "batches": -(-total_rows // cfg.batch_size),
            "stage_seconds": times,
        }
