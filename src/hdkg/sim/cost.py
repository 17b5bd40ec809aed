"""Analytic cost model for the accelerator pipeline.

The modeled device runs four stages per training batch, each characterized by
a compute time (operations over a throughput in ops per cycle at the device
clock) and a traffic time (bytes over a link bandwidth); a stage that streams
while it computes takes the larger of the two.

  encode     unencoded vertices x d x D MACs on the encoder array; the fresh
             hypervectors are written to device memory.  With a warm registry
             this stage is idle, so steady-state batch latency excludes it.
  memorize   every vertex's neighborhood is aggregated: one engine per batch
             member, each accumulating a few hypervector elements per cycle
             through its memory port, so a batch costs its max degree times
             the per-edge accumulate cycles.  Neighbor hypervectors are
             fetched through the cache; each miss moves D x elem_bytes from
             device memory.
  score      batch_size x |V| x D elementwise ops on the score engines while
             the memory matrix streams from device memory.
  train      per chunk of T candidate columns: two dense products
             (T x batch_size x D and T x D x d MACs) plus one elementwise
             T x D pass; the loss gradient ships down over the host link and
             embedding gradients ship back up, overlapped with chunk compute.
             The work is linear in T, so the chunks add up to one pass over
             all |V| columns and T does not change the modeled time.

A fixed per-batch host overhead accounts for launch and driver latency.
Modeled single-batch latency is the steady-state sum of the stage times plus
that overhead.  All throughput constants are estimates stated by the presets,
not measurements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace

import numpy as np

from ..atomic import atomic_write
from .cache import Cache
from .scheduler import schedule_epoch


@dataclass(frozen=True)
class CostConfig:
    name: str
    clock_hz: float
    device_bytes_per_s: float       # HBM bandwidth
    host_bytes_per_s: float         # host link (PCIe) bandwidth
    encode_macs_per_cycle: int
    mem_engines: int                # N_c, also the schedule batch width
    mem_lanes_per_engine: int       # hypervector elements per cycle per engine
    score_ops_per_cycle: int
    train_macs_per_cycle: int
    elem_bytes: int
    batch_size: int
    chunk_T: int
    cache_slots: int
    cache_policy: str
    host_overhead_s: float
    addr_bytes: int = 8
    ctrl_bytes_per_edge: int = 8


# Throughput figures are estimates for the two reference boards: a 200 MHz
# clock, 460 GB/s of device memory bandwidth, and engine counts sized like
# the reported resource budgets.  The larger board doubles the memorization
# engines, the training array, and the on-chip cache, and widens chunks.
PRESETS = {
    "u50": CostConfig(
        name="u50", clock_hz=200e6, device_bytes_per_s=460e9,
        host_bytes_per_s=16e9, encode_macs_per_cycle=1024,
        mem_engines=16, mem_lanes_per_engine=8,
        score_ops_per_cycle=32768, train_macs_per_cycle=1536,
        elem_bytes=4, batch_size=128, chunk_T=32,
        cache_slots=4608, cache_policy="lfu", host_overhead_s=1.0e-3),
    "u280": CostConfig(
        name="u280", clock_hz=200e6, device_bytes_per_s=460e9,
        host_bytes_per_s=16e9, encode_macs_per_cycle=1024,
        mem_engines=32, mem_lanes_per_engine=8,
        score_ops_per_cycle=32768, train_macs_per_cycle=3072,
        elem_bytes=4, batch_size=128, chunk_T=64,
        cache_slots=9216, cache_policy="lfu", host_overhead_s=1.0e-3),
}


@dataclass
class StageTime:
    compute_s: float
    traffic_s: float

    @property
    def bound_s(self) -> float:
        return max(self.compute_s, self.traffic_s)


@dataclass
class ReplayStats:
    """Counters from replaying one scheduled memorization pass."""

    encodes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    mem_cycles: int = 0
    fetch_bytes: int = 0        # neighbor hypervectors read from device memory
    encode_write_bytes: int = 0  # fresh hypervectors written to device memory
    host_payload_bytes: int = 0  # embedding rows, addresses, neighbor refs

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def replay_schedule(batches, neighbors_of, cache: Cache, registry: set[int],
                    d: int, D: int, cfg: CostConfig) -> ReplayStats:
    """Walk one epoch's schedule, driving the cache and the registry.

    Encode flags and batch degrees are the schedule's, fixed when it was built.
    """
    stats = ReplayStats()
    evictions_before = cache.evictions
    hv_bytes = D * cfg.elem_bytes
    for batch in batches:
        for vid, needs_encode in zip(batch.members, batch.encode, strict=True):
            if needs_encode:
                stats.encodes += 1
                stats.host_payload_bytes += d * cfg.elem_bytes
                stats.encode_write_bytes += hv_bytes
                registry.add(vid)
            else:
                stats.host_payload_bytes += cfg.addr_bytes
            tails, _rels = neighbors_of(vid)
            stats.host_payload_bytes += len(tails) * cfg.ctrl_bytes_per_edge
            for j in tails:
                if cache.access(int(j)):
                    stats.hits += 1
                else:
                    stats.misses += 1
                    stats.fetch_bytes += hv_bytes
        stats.mem_cycles += -(-batch.degree * D // cfg.mem_lanes_per_engine)
    stats.evictions = cache.evictions - evictions_before
    return stats


@dataclass
class SimReport:
    """Modeled timing and traffic for one dataset on one configuration."""

    config: dict
    n_vertices: int
    n_relations: int
    n_edges: int
    n_train_batches: int
    cold: dict
    warm: dict
    stages: dict                 # stage -> {compute_s, traffic_s, bound_s}
    single_batch_latency_ms: float
    epoch_encode_s: float        # one-time epoch-1 encode cost
    steady_epoch_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def simulate(degrees: np.ndarray, neighbors_of, n_relations: int, n_train: int,
             d: int, D: int, cfg: CostConfig, seed: int = 0) -> SimReport:
    """Schedule and replay two epochs, then compose the analytic timing model.

    The first (cold) replay starts with an empty registry and cache and pays
    for every encode; the second (warm) replay reuses both, which is the
    steady state the latency model reports.
    """
    n_vertices = len(degrees)
    registry: set[int] = set()
    cache = Cache(cfg.cache_slots, cfg.cache_policy, seed=seed)

    cold_batches = schedule_epoch(degrees, cfg.mem_engines, registry)
    cold = replay_schedule(cold_batches, neighbors_of, cache, registry, d, D, cfg)
    warm_batches = schedule_epoch(degrees, cfg.mem_engines, registry)
    warm = replay_schedule(warm_batches, neighbors_of, cache, registry, d, D, cfg)

    B = cfg.batch_size
    n_train_batches = max(1, -(-n_train // B))

    encode_macs = cold.encodes * d * D
    epoch_encode_s = (encode_macs / (cfg.encode_macs_per_cycle * cfg.clock_hz)
                      + cold.encode_write_bytes / cfg.device_bytes_per_s)

    memorize = StageTime(
        compute_s=warm.mem_cycles / cfg.clock_hz,
        traffic_s=warm.fetch_bytes / cfg.device_bytes_per_s)
    score = StageTime(
        compute_s=B * n_vertices * D / (cfg.score_ops_per_cycle * cfg.clock_hz),
        traffic_s=n_vertices * D * cfg.elem_bytes / cfg.device_bytes_per_s)
    # The per-chunk work is linear in the chunk width, so the chunks sum to
    # one pass over all candidate columns whatever T is.
    train_macs = n_vertices * D * (B + d + 1)
    train_host_bytes = (B * n_vertices + n_vertices * d) * cfg.elem_bytes
    train = StageTime(
        compute_s=train_macs / (cfg.train_macs_per_cycle * cfg.clock_hz),
        traffic_s=train_host_bytes / cfg.host_bytes_per_s)

    latency_s = (memorize.bound_s + score.bound_s + train.bound_s
                 + cfg.host_overhead_s)
    stages = {
        "memorize": asdict(memorize) | {"bound_s": memorize.bound_s},
        "score": asdict(score) | {"bound_s": score.bound_s},
        "train": asdict(train) | {"bound_s": train.bound_s},
    }
    return SimReport(
        config=asdict(cfg),
        n_vertices=n_vertices, n_relations=n_relations,
        n_edges=int(np.asarray(degrees).sum()),
        n_train_batches=n_train_batches,
        cold=asdict(cold) | {"hit_rate": cold.hit_rate},
        warm=asdict(warm) | {"hit_rate": warm.hit_rate},
        stages=stages,
        single_batch_latency_ms=latency_s * 1e3,
        epoch_encode_s=epoch_encode_s,
        steady_epoch_s=latency_s * n_train_batches,
    )


SWEEP_FIELDS = ("capacity", "policy", "hit_rate", "bytes_hbm", "latency_model_ms")


def sweep_capacities(degrees, neighbors_of, n_relations: int, n_train: int,
                     d: int, D: int, cfg: CostConfig,
                     capacities, policies, seed: int = 0) -> list[dict]:
    """Cache sweep rows: steady-state hit rate, fetch traffic, and latency."""
    rows = []
    for policy in policies:
        for capacity in capacities:
            report = simulate(degrees, neighbors_of, n_relations, n_train, d, D,
                              replace(cfg, cache_slots=int(capacity),
                                      cache_policy=policy), seed=seed)
            rows.append({
                "capacity": int(capacity),
                "policy": policy,
                "hit_rate": report.warm["hit_rate"],
                "bytes_hbm": report.warm["fetch_bytes"],
                "latency_model_ms": report.single_batch_latency_ms,
            })
    return rows


def write_sweep_csv(path, rows: list[dict]) -> None:
    import csv
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row[key] for key in SWEEP_FIELDS})
