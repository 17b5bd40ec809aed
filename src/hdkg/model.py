"""Graph memorization, translational scoring, loss, and closed-form backward.

The model keeps one low-dimensional embedding row per vertex (e_v) and per
relation (e_r).  Everything else is derived: hypervectors H through the fixed
random projection, per-vertex memory through neighborhood memorization

    M[i] = sum over (j, r) in N(i) of H_v[j] * H_r[r]

and batch scores through a translational residual

    raw[j, c] = bias - | M[subject_j] + H_r[rel_j] - M[c] |_1
    P = sigmoid(raw)

so nearer candidates score higher.  Training and evaluation score through
the same function, :func:`query_scores`.

Every walk of the graph goes through one "aggregate, then bind" kernel,
:func:`aggregate_bind`.  All tails j of a (head i, relation r) pair share the
factor H_r[r], so one sparse product first sums H_v over the pair's tails and
the bind then runs once per pair, not once per edge.  Memorization runs it
over the (head, relation) pairs; the reference backward runs it over the
(tail, relation) pairs to carry the memory gradient back to H_v and H_r.
Pairs go PAIR_CHUNK at a time, so no walk holds a temporary larger than
PAIR_CHUNK x D.  The tests keep the per-relation matrix form as an
independent check of the kernel.

Training updates only e_v, e_r and the bias.  Two backward modes exist:

  reference  exact gradients of the computation above, including the tanh
             derivative and every path (candidate-side, subject-side, and the
             relation contributions inside memorization).  Passes central
             finite-difference checks.
  hardware   the accelerator's simplification: the encoder is differentiated
             as if linear (just the transposed base matrix), the memory-to-
             hypervector step multiplies by the per-vertex relation sum G
             (:func:`relation_sums`, built by this branch alone), and the
             relation gradient reuses the subject-side gradient, skipping the
             memorization path.

Both modes start from the same sign contraction: with delta = d loss / d raw,
and d raw / d Q = -sign(Q - M[c]) since raw falls with the distance,

    gM[c] =  sum_j delta[j, c] sign(Q[j] - M[c])
    gQ[j] = -sum_c delta[j, c] sign(Q[j] - M[c])

a B x V x D sum.  Label smoothing makes most of delta one value per row:
wherever P is negligible, delta[j, c] is the floor -eps/V/(B V) bit for bit.
So delta is split into a row constant, the row median, plus a residual on
the cells that differ from it.  The constant part needs only per-dimension
counts of how many M[c, k] lie below and above each Q[j, k] (sorted columns
and searchsorted, ties excluded as sign(0) = 0 excludes them),
O((V + B) D log V) with no B x V x D pass.  The residual is contracted over
its own cells.  No cell is dropped and no tolerance decides which cells are
residual, so the split differs from the dense sum only in summation order.
When more than SPLIT_MAX_ACTIVE of the cells are residual (as when every
score carries gradient), the dense tiles run instead:
candidate columns in chunks of T, SIGN_TILE at a time.  Results are
independent of T up to float summation order (identical when each vertex is
touched by one chunk, which holds for the candidate-side accumulations).

Every sign, in both routes and in score_batch's cached S, comes from two
comparisons (:func:`_signs`), exact wherever Q and M are finite; score_batch
rejects non-finite scores.

Scoring and the dense tiles use both cores through one partition helper,
:func:`_parts`: a stage cuts its work into PARTS parts per round, part 0 runs
on the calling thread and the others on at most min(PARTS, cores) - 1 pool
threads, started once per stage call.  Buffers come from the caller, and
results are combined in index order.  Scoring cuts Q into row blocks, each
written by one cdist call into its rows of one caller-allocated buffer; a
dense tile writes only its own rows of gM and returns its gQ contribution,
subtracted in tile order.  Every part is the same computation over the same
operands whatever the thread, so scores and gradients are bit for bit those
of one thread on any host.  Memorization, the count part and the reference
tail walk stay serial.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
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
SIGN_TILE = 128        # candidate columns materialized at once in the dense tiles
SPLIT_MAX_ACTIVE = 0.2 # residual share of score cells above which the dense tiles run
PARTS = 2              # parts per round of a threaded stage, at most one thread each
COUNT_BLOCK = 32       # dimensions counted at once in the row-constant part
PAIR_CHUNK = 2048      # (vertex, relation) pairs aggregated at once in graph walks

BACKWARD_MODES = ("reference", "hardware")


@dataclass
class ModelState:
    """Trainable parameters plus the hypervectors and memory derived from them."""

    base: BaseMatrix
    e_v: np.ndarray
    e_r: np.ndarray
    bias: float = 0.0

    H_v: np.ndarray | None = field(default=None, repr=False)
    H_r: np.ndarray | None = field(default=None, repr=False)
    M_v: np.ndarray | None = field(default=None, repr=False)
    mv_fresh: bool = False

    @classmethod
    def create(cls, n_entities: int, n_relations: int, d: int, D: int, seed: int,
               dtype=np.float64, activation: str = "tanh",
               score_sign: str = "neg") -> "ModelState":
        # ``activation`` and ``score_sign`` stay only because the benchmark
        # harness passes them (see RunConfig); each has one valid value.
        if n_entities <= 0 or n_relations <= 0:
            raise ValueError("entity and relation counts must be positive")
        if activation != "tanh":
            raise ValueError(f"activation must be 'tanh', got {activation!r}")
        if score_sign != "neg":
            raise ValueError(f"score_sign must be 'neg', got {score_sign!r}")
        base = BaseMatrix.create(d, D, seed)
        gen = rng.stream(seed, "init")
        e_v = gen.uniform(-INIT_SCALE, INIT_SCALE, size=(n_entities, d)).astype(dtype)
        e_r = gen.uniform(-INIT_SCALE, INIT_SCALE, size=(n_relations, d)).astype(dtype)
        return cls(base=base, e_v=e_v, e_r=e_r)

    @property
    def dtype(self):
        return self.e_v.dtype

    def mark_stale(self):
        self.mv_fresh = False

    def refresh(self, kg: KnowledgeGraph):
        """Rebuild H_v, H_r and M_v after updates (the hardware backward builds its own G)."""
        self.H_v = encode(self.e_v, self.base)
        self.H_r = encode(self.e_r, self.base)
        self.M_v = memorize_edge_list(kg, self.H_v, self.H_r)
        self.mv_fresh = True
        return self


def memorize_edge_list(kg: KnowledgeGraph, H_v: np.ndarray,
                       H_r: np.ndarray) -> np.ndarray:
    """Per-vertex memory M over the train adjacency.

    M[i] sums H_v[j] * H_r[r] over i's out-edges (j, r), aggregated per
    (head, relation) pair by :func:`aggregate_bind`.
    """
    _check_hv(kg, H_v, H_r)
    M = np.zeros((kg.n_entities, H_v.shape[1]), dtype=H_v.dtype)
    aggregate_bind(kg.head_pairs, H_v, H_r, M)
    return M


def relation_sums(kg: KnowledgeGraph, H_r: np.ndarray) -> np.ndarray:
    """Per-vertex relation sum G[i] = sum of H_r[r] over i's out-edges (j, r).

    Only the hardware backward reads it.  One product with the unit (V, R)
    incidence of ``kg.out_edges`` in H_r's dtype, one entry per edge with
    duplicates kept, so each row sums its relation rows in (relation, tail)
    order and a recomputation from the same inputs reproduces it exactly.
    """
    offsets, _tails, rels = kg.out_edges
    incidence = sp.csr_matrix((np.ones(len(rels), dtype=H_r.dtype), rels, offsets),
                              shape=(kg.n_entities, kg.n_relations))
    return incidence @ H_r


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


def query_scores(view, subjects, rels) -> tuple[np.ndarray, np.ndarray]:
    """Queries Q = M_v[s] + H_r[r] and raw scores bias - |Q - M_v[c]|_1.

    ``view`` is anything with ``M_v``, ``H_r`` and ``bias``: a refreshed
    :class:`ModelState` in training, a :class:`hdkg.ranking.ScoringView` in
    evaluation.  The scores come back in M_v's dtype.  A non-finite score
    raises :class:`NumericError`: the backward's sign comparisons read a NaN
    as a tie, and ranking would place a NaN target at rank 0.
    """
    Q = view.M_v[subjects] + view.H_r[rels]
    # cdist computes in float64 whatever its input, so both operands are cast
    # once here, and each row block of Q writes its rows of one buffer.
    Q64 = np.ascontiguousarray(Q, dtype=np.float64)
    M64 = np.ascontiguousarray(view.M_v, dtype=np.float64)
    B = len(Q)
    norms = np.empty((B, len(M64)), dtype=np.float64)
    blocks = [(B * i // PARTS, B * (i + 1) // PARTS) for i in range(PARTS)]
    blocks = [(a, b) for a, b in blocks if a < b]

    def part(i):
        a, b = blocks[i]
        cdist(Q64[a:b], M64, metric="cityblock", out=norms[a:b])

    with _parts() as run:
        run(part, len(blocks))
    norms = norms.astype(view.M_v.dtype, copy=False)
    raw = np.subtract(view.bias, norms, out=norms)
    bad = ~np.isfinite(raw)
    if bad.any():
        raise NumericError(f"non-finite score in batch row {bad.any(axis=1).argmax()}")
    return Q, raw


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

    Q, raw = query_scores(state, subjects, rels)
    P = expit(raw)
    S = None
    if cache_signs:
        S = _signs(Q[:, None, :], state.M_v[None, :, :])
    return ScoreSignals(subjects=subjects, rels=rels, Q=Q, raw=raw, P=P, S=S)


def _signs(a: np.ndarray, b: np.ndarray, out=(None, None)) -> np.ndarray:
    """sign(a - b) as int8, from two comparisons of the broadcast operands.

    Equal to np.sign(a - b) wherever both are finite, ties and signed zeros
    included: a finite difference is zero exactly when a == b.  A NaN gives
    0, not NaN.  ``out`` may name two bool arrays of the broadcast shape for
    the comparisons; the result is a view of the first.
    """
    gt = np.greater(a, b, out=out[0]).view(np.int8)
    return np.subtract(gt, np.less(a, b, out=out[1]).view(np.int8), out=gt)


def loss_and_delta(signals: ScoreSignals, targets, n_candidates: int,
                   label_smoothing: float = 0.1) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy against multi-hot targets, and d(loss)/d(raw).

    ``targets`` lists the positive tail ids per batch row; every other
    candidate is a negative.  With label smoothing epsilon the targets become
    y * (1 - eps) + eps / n_candidates.  The returned delta is
    (P - y) / (batch * candidates), the exact gradient of the mean loss with
    respect to the raw scores.

    y has two values, the negative and the positive target, computed once in
    P's dtype: every cell gets the negative's terms, then the positive cells
    are overwritten.  Each cell takes the float operations a dense y would
    give it, and at most two B x V arrays, delta among them, are held.
    """
    tails = [np.asarray(t, dtype=np.int64).reshape(-1) for t in targets]
    rows = np.repeat(np.arange(len(tails)), [len(t) for t in tails])
    cols = np.concatenate([np.empty(0, dtype=np.int64), *tails])
    bad = (cols < 0) | (cols >= n_candidates)
    if bad.any():
        raise ValueError(f"target id out of range in row {rows[bad.argmax()]}")
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError("label_smoothing must be in [0, 1)")
    y = np.array([0.0, 1.0], dtype=signals.P.dtype)
    if label_smoothing:
        y = y * (1.0 - label_smoothing) + label_smoothing / n_candidates
    y_neg, y_pos = y

    # softplus(raw) - y * raw, stable for large |raw|
    raw = signals.raw
    cells = np.logaddexp(0.0, raw)
    pos_cells = cells[rows, cols] - y_pos * raw[rows, cols]
    delta = np.multiply(y_neg, raw)     # delta's buffer, lent to the loss first
    cells -= delta
    cells[rows, cols] = pos_cells
    loss = float(cells.mean())
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss: {loss}")
    np.subtract(signals.P, y_neg, out=delta)
    delta[rows, cols] = signals.P[rows, cols] - y_pos
    delta /= len(signals.subjects) * n_candidates
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
    """Backward pass; the dense sign tiles take candidate columns T at a time.

    The sign contraction is split into a per-row constant part, contracted
    from per-dimension counts, and a residual contracted over its own cells
    (see the module docstring).  The split reassociates the dense sums and
    drops no cell: the two routes agree to a few ulps of the largest
    gradient entry, ties included, with or without cached signs.  T only
    shapes the dense fallback, which runs when more than SPLIT_MAX_ACTIVE of
    the cells differ from their row's median.

    With ``return_internals`` the hypervector-space accumulators come back in
    a second dict: the candidate-side memory gradient before the subject
    scatter (``gM_candidates``), the per-query gradient (``gQ``), the
    relation rows it scatters into (``gHr_direct``), and the hypervector
    gradients ``gHv`` and ``gHr`` before the encoder's tanh derivative.
    """
    if mode not in BACKWARD_MODES:
        raise ValueError(f"mode must be one of {BACKWARD_MODES}")
    if T <= 0:
        raise ValueError("chunk width T must be positive")
    B, V = delta.shape
    if V != len(state.M_v) or B != len(signals.subjects):
        raise ShapeError(f"delta shape {delta.shape} disagrees with batch/candidates")

    gM, gQ = _sign_contraction(signals, state.M_v, delta, T, state.dtype)

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
        gHv = gM * relation_sums(kg, state.H_r)
    else:
        # Memorization path, walked from the tail side: each (tail, relation)
        # pair sums gM over its heads once, then binds it with H_r for the
        # tail's row and with H_v[tail] for the relation's row.
        gHv = np.zeros_like(state.H_v)
        aggregate_bind(kg.tail_pairs, gM, state.H_r, gHv,
                       H_vertex=state.H_v, g_rel=gHr)
    if return_internals:
        internals["gHv"], internals["gHr"] = gHv.copy(), gHr.copy()
    if mode == "reference":
        for g, H in ((gHv, state.H_v), (gHr, state.H_r)):
            deriv = np.square(H)
            np.subtract(1.0, deriv, out=deriv)
            g *= deriv
    basemat_t = state.base.data.T.astype(state.dtype, copy=False)
    grad_e_v = gHv @ basemat_t
    grad_e_r = gHr @ basemat_t
    grads = Gradients(e_v=grad_e_v, e_r=grad_e_r, bias=grad_bias)
    if return_internals:
        return grads, internals
    return grads


def _sign_contraction(signals: ScoreSignals, M: np.ndarray, delta: np.ndarray,
                      T: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """gM[c] = sum_j delta[j, c] sign(Q[j] - M[c]) and
    gQ[j] = -sum_c delta[j, c] sign(Q[j] - M[c]).

    Takes the split route when at most SPLIT_MAX_ACTIVE of the cells differ
    from their row's median, the dense tiles otherwise.  The cells are only
    counted here; no index array is built before the route is chosen, so the
    dense regime pays one partition and one comparison per row of delta.

    SPLIT_MAX_ACTIVE was set against serial np.sign tiles.  Against today's
    threaded comparison tiles (B = 128, D = 256, random residual cells,
    float64, 2-core host, V = 3635 and 10000) the split costs 0.90-0.96x of
    the dense route at 10% residual and 1.40-1.55x at 20%.  The constant
    stays: moving it changes which route runs, and so the summation order.
    """
    V = delta.shape[1]
    # Row by row, so the choice holds no B x V temporary: one kept alive
    # through the dense tiles slowed them by a third.
    row_const = np.array([np.partition(row, V // 2)[V // 2] for row in delta],
                         dtype=delta.dtype)
    n_active = sum(np.count_nonzero(row != c) for row, c in zip(delta, row_const))
    if n_active > SPLIT_MAX_ACTIVE * delta.size:
        return _dense_contraction(signals, M, delta, T, dtype)
    return _split_contraction(signals, M, delta, row_const, dtype)


def _dense_contraction(signals, M, delta, T, dtype):
    """Every cell's sign vector, one tile of at most SIGN_TILE columns at a time.

    Tiles cut the candidate columns in chunks of T, then SIGN_TILE within a
    chunk.  Each tile's signs come from two comparisons (:func:`_signs`), or
    from the cached S, cast to ``dtype`` once.  Tiles run in rounds of PARTS
    through :func:`_parts`; numpy's comparisons, casts and einsum release the
    GIL.  A tile writes only its own rows of gM and returns its gQ
    contribution, which is subtracted in tile order.  Every sum thus keeps
    the terms and order of one serial pass, and the result is bit for bit the
    same on any number of cores.  (Splitting D across threads instead is not: a one-column block
    changes einsum's inner loop from the dimensions to the summed axis.)
    """
    B, V = delta.shape
    D = M.shape[1]
    gM = np.zeros((V, D), dtype=dtype)
    gQ = np.zeros((B, D), dtype=dtype)
    tiles = [(t0, min(t0 + SIGN_TILE, c0 + T, V))
             for c0 in range(0, V, T) for t0 in range(c0, min(c0 + T, V), SIGN_TILE)]
    # Each part of a round has its own slot of tile buffers.
    size = B * min(SIGN_TILE, T, V) * D
    slots = [(np.empty(size, dtype=bool), np.empty(size, dtype=bool),
              np.empty(size, dtype=dtype)) for _ in range(PARTS)]

    def tile(t0, t1, slot):
        gt, lt, sgn = (buf[:B * (t1 - t0) * D].reshape(B, t1 - t0, D) for buf in slot)
        np.copyto(sgn, signals.S[:, t0:t1, :] if signals.S is not None
                  else _signs(signals.Q[:, None, :], M[None, t0:t1, :], out=(gt, lt)))
        # d raw / d Q = -sgn;  d raw / d M[c] = sgn
        gM[t0:t1] += np.einsum("jc,jck->ck", delta[:, t0:t1], sgn)
        return np.einsum("jc,jck->jk", delta[:, t0:t1], sgn)

    with _parts() as run:
        for r0 in range(0, len(tiles), PARTS):
            rnd = tiles[r0:r0 + PARTS]
            for contribution in run(lambda i: tile(*rnd[i], slots[i]), len(rnd)):
                gQ -= contribution
    return gM, gQ


@contextmanager
def _parts():
    """The partition map of one stage call: ``run(fn, n)`` returns
    [fn(0), ..., fn(n - 1)], in index order.

    Part 0 runs on the calling thread and the others on at most
    min(PARTS, cores) - 1 pool threads, started once for the whole stage call
    however many rounds it maps; on one core no thread is started.  Callers
    allocate the parts' buffers on the calling thread (large arrays a worker
    allocates stay in its malloc arena after it exits, which raised peak RSS
    by 24 MB in the dense tiles at B = 128, D = 256) and combine shared
    results in index order, so the bytes do not depend on the core count.
    """
    workers = min(PARTS, _available_cores()) - 1
    if workers < 1:
        yield lambda fn, n: [fn(i) for i in range(n)]
        return
    with ThreadPoolExecutor(workers) as pool:
        def run(fn, n):
            rest = [pool.submit(fn, i) for i in range(1, n)]
            try:
                first = [fn(0)] if n else []
            finally:
                wait(rest)
            return first + [f.result() for f in rest]
        yield run


def _available_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_contraction(signals, M, delta, row_const, dtype):
    """The row-constant part from per-dimension counts, the residual cell by cell."""
    gM, gQ = _row_constant_part(signals.Q, M, row_const, dtype)
    B = delta.shape[0]
    rows, cols = np.nonzero(delta != row_const[:, None])
    resid = delta[rows, cols] - row_const[rows]
    # Each block gathers at most as many sign vectors as one dense tile holds.
    step = B * SIGN_TILE
    for i0 in range(0, len(rows), step):
        j, c, r = rows[i0:i0 + step], cols[i0:i0 + step], resid[i0:i0 + step]
        sgn = (signals.S[j, c] if signals.S is not None
               else _signs(signals.Q[j], M[c])).astype(dtype)
        cells = np.arange(len(j))
        gQ -= sp.csr_matrix((r, (j, cells)), shape=(B, len(j))) @ sgn
        touched, c_at = np.unique(c, return_inverse=True)
        by_col = sp.csr_matrix((r, (c_at, cells)), shape=(len(touched), len(j)))
        gM[touched] += by_col @ sgn
    return gM, gQ


def _row_constant_part(Q, M, row_const, dtype):
    """Contraction of delta[j, c] = row_const[j] over all cells, from counts.

    Per dimension k, with M's column sorted and lo[j] = #{c: M[c,k] < Q[j,k]},
    hi[j] = #{c: M[c,k] <= Q[j,k]} from searchsorted:

      sum_c sign(Q[j,k] - M[c,k]) = lo[j] - (V - hi[j])
      sum_j row_const[j] sign(Q[j,k] - M[c,k])
          = sum of row_const[j] over lo[j] > i  -  sum over hi[j] <= i

    for the candidate c at sorted position i; the second line's sums are
    prefix sums of row_const binned by lo and hi.  Ties (sign 0) fall in
    neither sum, as in the dense tiles.  Dimensions go COUNT_BLOCK at a time.
    """
    B, D = Q.shape
    V = len(M)
    gM = np.empty((V, D), dtype=dtype)
    gQ = np.empty((B, D), dtype=dtype)
    total = row_const.sum()
    for k0 in range(0, D, COUNT_BLOCK):
        k1 = min(k0 + COUNT_BLOCK, D)
        M_t = np.ascontiguousarray(M[:, k0:k1].T)
        order = np.argsort(M_t, axis=1)
        M_sorted = np.take_along_axis(M_t, order, axis=1)
        lo = np.empty((k1 - k0, B), dtype=np.intp)
        hi = np.empty((k1 - k0, B), dtype=np.intp)
        for i, k in enumerate(range(k0, k1)):
            lo[i] = np.searchsorted(M_sorted[i], Q[:, k], side="left")
            hi[i] = np.searchsorted(M_sorted[i], Q[:, k], side="right")
        gQ[:, k0:k1] = (-row_const * (lo + hi - V)).T
        # One bincount for the whole block: row i's bins start at i * (V + 1).
        offsets = (V + 1) * np.arange(k1 - k0)[:, None]
        weights = np.broadcast_to(row_const, lo.shape).ravel()
        n_bins = (k1 - k0) * (V + 1)
        at_lo = np.bincount((lo + offsets).ravel(), weights, n_bins).reshape(k1 - k0, V + 1)
        at_hi = np.bincount((hi + offsets).ravel(), weights, n_bins).reshape(k1 - k0, V + 1)
        above = total - np.cumsum(at_lo[:, :V], axis=1)
        below = np.cumsum(at_hi[:, :V], axis=1)
        g_t = np.empty_like(M_t)
        np.put_along_axis(g_t, order, above - below, axis=1)
        gM[:, k0:k1] = g_t.T
    return gM, gQ


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
        """Apply one update; a non-finite gradient raises before anything
        changes, a parameter the update made non-finite raises after it."""
        for name in ("e_v", "e_r", "bias"):
            if not np.isfinite(getattr(grads, name)).all():
                raise NumericError(f"non-finite gradient for {name}")
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
        # A finite gradient can still overflow a parameter (a huge lr); the
        # checkpoint loader would reject it, so stop here instead.
        for name in ("e_v", "e_r", "bias"):
            if not np.isfinite(getattr(state, name)).all():
                raise NumericError(f"non-finite value in {name} after the update")


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
            row, tails = self.tails.lookup(rows[:, 0], rows[:, 1])
            targets = np.split(tails, np.searchsorted(row, np.arange(1, len(rows))))
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
