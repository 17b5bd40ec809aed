"""One benchmark run of one workload: set-up, warm-up round, measured rounds.

A run writes the workload's synthetic dataset as a ``.hdkg`` file, then sets
up a train-plus-eval session from it several times (``setup_s`` is the
median).  A warm-up round pays lazy first-call costs and counts toward no
metric.  Measured rounds follow until the run's time is spent; each round
runs every operation once, in a fixed order, so a slow phase of the host
lands on every metric alike.  Each metric is the median over the rounds.

Every training call starts from the same parameter snapshot, so each sample
measures the same regime.  Every operation's output is checked against the
computations in :mod:`oracle`; an operation whose check fails, or that
raises, counts as failed.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hdkg import config as hconfig
from hdkg import kg as hkg
from hdkg import model as hmodel
from hdkg import ranking
from hdkg.sim import cost as hcost

import oracle
from graphs import GraphShape, synthetic_splits

POLICIES = ("lru", "lfu", "random")
EVAL_CHECKED_QUERIES = 16      # queries per eval call checked against numpy
FD_RTOL = 1e-4                 # finite-difference agreement of the reference gradient
FD_STEP = 1e-6                 # finite-difference step, relative to the embedding scale
SETUP_REPEATS = 5              # set-ups per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    shape: GraphShape
    embed_scale: float              # multiplies e_v and e_r after ModelState.create
    hw_batches: int                 # batches per hardware-mode training call
    ref_batches: int                # batches per reference-mode training call
    eval_queries: int               # test queries ranked per eval call
    cache_slots: int = 0            # simulated cache size; 0 keeps the u50 preset's


# Entity, relation and triple counts are those of the public datasets.  The
# skews are chosen, not fitted to the real degree and relation distributions.
FB15K237 = GraphShape(n_entities=14541, n_relations=237, n_train=272115,
                      n_valid=17535, n_test=20466,
                      head_skew=0.5, tail_skew=0.85, relation_skew=1.0)

WORKLOADS = {
    # FB15K-237's counts at a quarter of its entities: 474 relations, mean
    # out-degree 37 and hub tails load the reference backward's per-relation
    # loop, memorization, tail_index and the cache replay.  At initialisation
    # every off-positive score cell sits at the label-smoothing floor (the
    # sparse regime).  The cache keeps the u50 ratio of slots to entities.
    "fb15k237-small": Workload(
        shape=FB15K237.scaled(0.25),
        embed_scale=1.0, hw_batches=2, ref_batches=1, eval_queries=2048,
        cache_slots=1152),
    # WN18RR's counts (11 relations, mean out-degree 4) at 10k entities, with
    # embeddings scaled so every score cell carries gradient (the dense
    # regime).  It bypasses what the first workload stresses: the
    # per-relation loop is light, the replay short, and the per-vertex
    # overhead of memorization dominates.
    "wn18rr-small-dense": Workload(
        shape=GraphShape(n_entities=10000, n_relations=11, n_train=21209,
                         n_valid=741, n_test=765,
                         head_skew=0.3, tail_skew=0.6, relation_skew=1.0),
        embed_scale=0.01, hw_batches=1, ref_batches=1, eval_queries=1024),
    # Full FB15K-237 scale, for reference figures.  On a 2-core host a round
    # takes 13-40 s, so a run holds too few rounds to gate on.
    "fb15k237": Workload(
        shape=FB15K237,
        embed_scale=1.0, hw_batches=1, ref_batches=1, eval_queries=512),
}


def write_dataset(shape: GraphShape, seed: int, path: Path) -> None:
    """Draw the workload's splits and save them as an hdkg dataset cache."""
    train, valid, test = synthetic_splits(shape, seed)
    kg = hkg.KnowledgeGraph(
        entities=[f"e{i}" for i in range(shape.n_entities)],
        relations=[f"r{i}" for i in range(shape.n_relations)],
        train=train, valid=valid, test=test)
    hkg.save_cache(kg, path)


class FixedOrder:
    """Stands in for the trainer's shuffle stream so an epoch is a fixed set of rows."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def permutation(self, n: int) -> np.ndarray:
        return self.rows


@dataclass
class Session:
    """What a train-plus-eval session holds after set-up."""

    kg: hkg.KnowledgeGraph
    state: hmodel.ModelState
    trainer: hmodel.Trainer
    filter_index: dict


def set_up(path: Path, cfg, embed_scale: float) -> Session:
    """Load, augment, initialise, build both tail indexes, and refresh once."""
    kg = hkg.add_reciprocal(hkg.load_cache(path))
    state = hmodel.ModelState.create(
        kg.n_entities, kg.n_relations, cfg.d, cfg.D, cfg.seed,
        dtype=np.float32 if cfg.dtype == "float32" else np.float64,
        activation=cfg.activation, score_sign=cfg.score_sign)
    if embed_scale != 1.0:
        state.e_v *= embed_scale
        state.e_r *= embed_scale
    train_cfg = hmodel.TrainConfig(
        batch_size=cfg.batch_size, chunk_T=cfg.chunk_T, mode=cfg.mode,
        label_smoothing=cfg.label_smoothing,
        optimizer=hmodel.OptimizerConfig(lr=cfg.lr, momentum=cfg.momentum,
                                         adaptive=cfg.adaptive,
                                         bias_trainable=cfg.bias_trainable))
    trainer = hmodel.Trainer(state, kg, train_cfg, cfg.seed)
    filter_index = hkg.tail_index(kg.train, kg.valid, kg.test)
    state.refresh(kg)
    return Session(kg, state, trainer, filter_index)


class Run:
    """Operations of one run, their samples, and the attempted/failed counts."""

    def __init__(self, workload: Workload, seed: int, dataset: Path):
        self.workload = workload
        self.seed = seed
        self.dataset = dataset
        self.tracer = None             # a spans.Tracer in traced runs
        self.cfg = hconfig.build_config(preset="fb15k237", overrides={"seed": seed})
        sim = hconfig.build_config(preset="u50", overrides={"seed": seed})
        self.sim_d, self.sim_D = sim.d, sim.D
        base = hcost.PRESETS[sim.preset]
        self.cost = replace(base, batch_size=sim.batch_size, chunk_T=sim.chunk_T,
                            mem_engines=sim.n_engines or base.mem_engines,
                            cache_slots=(workload.cache_slots or sim.cache_slots
                                         or base.cache_slots),
                            cache_policy=sim.cache_policy or base.cache_policy)
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.rounds = 0
        self.sim_report = None
        self.fd_relative_error = None

    # -- bookkeeping -------------------------------------------------------

    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name

    def attempt(self, name: str, op):
        """Run one operation; a raised error or a failed check counts as failed."""
        self.attempted += 1
        try:
            value, problems = op()
        except Exception:
            # The run must go on to report its counts; the traceback says why.
            traceback.print_exc(file=sys.stderr)
            value, problems = None, [f"{name} raised"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {name}: {problem}", file=sys.stderr)
            return None
        return value

    def record(self, metric: str, value):
        if value is not None:
            self.samples.setdefault(metric, []).append(value)

    # -- set-up ------------------------------------------------------------

    def set_up(self):
        self.phase("setup")
        times = []
        for _ in range(SETUP_REPEATS):
            self.session = None          # let the previous session go first
            t0 = time.perf_counter()
            self.session = set_up(self.dataset, self.cfg, self.workload.embed_scale)
            times.append(time.perf_counter() - t0)
            self.attempted += 1
        self.samples["setup_s"] = times
        s = self.session
        self.snapshot = (s.state.e_v.copy(), s.state.e_r.copy(), s.state.bias)
        # Training never writes these arrays in place; refresh rebinds new ones.
        self.view = ranking.ScoringView.from_state(s.state)
        gen = np.random.default_rng([self.seed, 1])
        B = self.cfg.batch_size
        n_rows = max(self.workload.hw_batches, self.workload.ref_batches) * B
        self.rows = gen.permutation(len(s.kg.train))[:n_rows]
        self.queries = s.kg.test[gen.choice(len(s.kg.test), self.workload.eval_queries,
                                            replace=False)]
        self.degrees = s.kg.degrees()
        self.n_edges = int(self.degrees.sum())
        self.capacities = (self.cost.cache_slots, s.kg.n_entities)
        self.n_distinct_tails = len(np.unique(s.kg.train[:, 2]))
        keys = s.kg.train[gen.choice(len(s.kg.train), 256, replace=False), :2].tolist()
        self.phase("check")
        self.attempt("filter_index", lambda: (None, oracle.filter_index(
            s.filter_index, (s.kg.train, s.kg.valid, s.kg.test), keys)))

    def restore_snapshot(self):
        state = self.session.state
        e_v, e_r, bias = self.snapshot
        state.e_v[...] = e_v
        state.e_r[...] = e_r
        state.bias = bias
        state.mark_stale()

    # -- operations --------------------------------------------------------

    def train(self, mode: str, n_batches: int):
        trainer = self.session.trainer
        self.restore_snapshot()
        trainer.cfg.mode = mode
        trainer.shuffle_gen = FixedOrder(self.rows[:n_batches * self.cfg.batch_size])
        t0 = time.perf_counter()
        result = trainer.train_epoch()
        seconds = time.perf_counter() - t0
        rate = n_batches * self.cfg.batch_size / seconds
        return rate, oracle.training_call(result, n_batches)

    def evaluate(self):
        s = self.session
        t0 = time.perf_counter()
        ranks = ranking.rank_queries(self.view, self.queries, s.filter_index,
                                     filtered=True, batch_size=self.cfg.eval_batch)
        seconds = time.perf_counter() - t0
        n = len(self.queries)
        start = self.rounds * EVAL_CHECKED_QUERIES % n
        picked = np.arange(start, start + EVAL_CHECKED_QUERIES) % n
        problems = oracle.rank_bounds(self.view.M_v, self.view.H_r, self.view.bias,
                                      self.queries[picked], ranks[picked],
                                      (s.kg.train, s.kg.valid, s.kg.test))
        return n / seconds, problems

    def simulate(self):
        kg = self.session.kg
        t0 = time.perf_counter()
        report = hcost.simulate(self.degrees, kg.neighbors, kg.n_relations, len(kg.train),
                                self.sim_d, self.sim_D, self.cost, seed=self.seed)
        seconds = time.perf_counter() - t0
        problems = oracle.sim_report(report, kg.n_entities, self.n_edges, self.sim_D, self.cost)
        if self.sim_report is not None and report.to_json() != self.sim_report.to_json():
            problems.append("simulate report differs from the previous round's")
        self.sim_report = report
        return 2 * self.n_edges / seconds, problems

    def sweep(self):
        kg = self.session.kg
        t0 = time.perf_counter()
        rows = hcost.sweep_capacities(self.degrees, kg.neighbors, kg.n_relations,
                                      len(kg.train), self.sim_d, self.sim_D, self.cost,
                                      self.capacities, POLICIES, seed=self.seed)
        seconds = time.perf_counter() - t0
        return 2 * self.n_edges * len(rows) / seconds, oracle.sweep_rows(
            rows, self.n_distinct_tails)

    def round(self, measured: bool):
        wl = self.workload
        ops = (
            ("train_hw_triples_per_s", lambda: self.train("hardware", wl.hw_batches)),
            ("train_ref_triples_per_s", lambda: self.train("reference", wl.ref_batches)),
            ("eval_queries_per_s", self.evaluate),
            ("sim_edges_per_s", self.simulate),
            ("sweep_edges_per_s", self.sweep),
        )
        for metric, op in ops:
            value = self.attempt(metric, op)
            if measured:
                self.record(metric, value)
        self.rounds += 1

    # -- checks outside the rounds -----------------------------------------

    def measure_and_check_gradient(self, seconds: float):
        """Measured rounds; the first reference step's first gradient is then
        checked by central finite differences along a direction that mixes
        the gradient with noise."""
        captured = []
        backward = hmodel.chunked_backward

        def capture(state, kg, signals, delta, *args, **kwargs):
            grads = backward(state, kg, signals, delta, *args, **kwargs)
            mode = kwargs.get("mode", args[1] if len(args) > 1 else "reference")
            if mode == "reference" and not captured:
                captured.append((signals.subjects.copy(), signals.rels.copy(), grads))
            return grads

        hmodel.chunked_backward = capture
        try:
            self.phase("round")
            start = time.perf_counter()
            while True:
                self.round(measured=True)
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            hmodel.chunked_backward = backward
        self.phase("check")
        self.attempt("reference_gradient", lambda: (None, self.gradient_check(*captured[0])))

    def gradient_check(self, subjects, rels, grads) -> list[str]:
        s = self.session
        state, kg = s.state, s.kg
        targets = [s.trainer.tails[(int(h), int(r))] for h, r in zip(subjects, rels)]
        grad = [grads.e_v, grads.e_r, np.array([grads.bias])]
        gen = np.random.default_rng([self.seed, 2])
        noise = [gen.standard_normal(g.shape) for g in grad]

        def norm(parts):
            return math.sqrt(sum(float((p * p).sum()) for p in parts))

        g_norm, n_norm = norm(grad), norm(noise)
        direction = [g / g_norm + n / n_norm for g, n in zip(grad, noise)]
        grad_dot_v = sum(float((g * v).sum()) for g, v in zip(grad, direction))
        step = FD_STEP * self.workload.embed_scale
        e_v, e_r, bias = self.snapshot
        losses = []
        for sign in (1.0, -1.0):
            state.e_v[...] = e_v + sign * step * direction[0]
            state.e_r[...] = e_r + sign * step * direction[1]
            state.bias = bias + sign * step * float(direction[2][0])
            state.mark_stale()
            state.refresh(kg)
            signals = hmodel.score_batch(state, subjects, rels)
            loss, _ = hmodel.loss_and_delta(signals, targets, kg.n_entities,
                                            label_smoothing=self.cfg.label_smoothing)
            losses.append(loss)
        self.restore_snapshot()
        fd = (losses[0] - losses[1]) / (2.0 * step)
        self.fd_relative_error = abs(fd - grad_dot_v) / abs(grad_dot_v)
        return oracle.directional_derivative(grad_dot_v, fd, FD_RTOL)

    # -- the whole run -----------------------------------------------------

    def execute(self, seconds: float):
        self.set_up()
        self.phase("warmup")
        self.round(measured=False)
        self.measure_and_check_gradient(seconds)
        if self.tracer is not None:
            # One more step per mode for the tracer's allocation high-water
            # mark, so that no timed backward runs under tracemalloc.
            self.phase("alloc")
            wl = self.workload
            self.attempt("alloc_hardware", lambda: self.train("hardware", wl.hw_batches))
            self.attempt("alloc_reference", lambda: self.train("reference", wl.ref_batches))

    def end_to_end(self) -> dict:
        """Every end-to-end metric's value: medians of the samples, plus
        memory and the modeled latency."""
        out = {name: statistics.median(values) for name, values in self.samples.items()
               if values}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.sim_report is not None:
            out["modeled_batch_latency_ms"] = self.sim_report.single_batch_latency_ms
        return out
