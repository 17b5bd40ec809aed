"""Scheduler, hypervector cache, and the replay-based cost model."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import make_graph, neighbors_from_degrees, skewed_degrees
from hdkg.sim.cache import LFU_HEAP_SLACK, Cache
from hdkg.sim.cost import (
    PRESETS,
    ReplayStats,
    SWEEP_FIELDS,
    replay_schedule,
    simulate,
    sweep_capacities,
    write_sweep_csv,
)
from hdkg.sim.scheduler import Registry, ScheduleBatch, describe_payload, schedule_epoch


class TestRegistry:
    def test_bump_allocation(self):
        reg = Registry()
        assert reg.allocate(7) == 0
        assert reg.allocate(3) == 1
        assert reg.allocate(7) == 0  # idempotent
        assert 3 in reg and 5 not in reg
        assert len(reg) == 2


class TestScheduler:
    def test_hand_trace_equal_degrees(self):
        # degrees [2, 1, 2, 1] with two engines: vertices of equal degree
        # pair up in id order
        batches = schedule_epoch(np.array([2, 1, 2, 1]), 2, Registry())
        assert [b.members for b in batches] == [[0, 2], [1, 3]]
        assert [b.degree for b in batches] == [2, 1]
        assert all(not b.tail for b in batches)
        assert all(b.encode == [True, True] for b in batches)

    def test_leftovers_packed_descending(self):
        batches = schedule_epoch(np.array([5, 4, 3]), 2, Registry())
        assert [b.members for b in batches] == [[0, 1], [2]]
        assert [b.degree for b in batches] == [5, 3]
        assert all(b.tail for b in batches)

    def test_full_buckets_flush_before_tail(self):
        batches = schedule_epoch(np.array([3, 1, 2, 2, 1]), 2, Registry())
        assert [b.members for b in batches] == [[2, 3], [1, 4], [0]]
        assert [b.tail for b in batches] == [False, False, True]

    def test_every_vertex_exactly_once(self):
        degrees = skewed_degrees(300, 1500, seed=2)
        batches = schedule_epoch(degrees, 16, Registry())
        seen = [v for b in batches for v in b.members]
        assert sorted(seen) == list(range(300))

    def test_non_tail_batches_are_degree_homogeneous(self):
        degrees = skewed_degrees(500, 2500, seed=3)
        for batch in schedule_epoch(degrees, 8, Registry()):
            if not batch.tail:
                assert len(set(int(degrees[v]) for v in batch.members)) == 1
                assert len(batch.members) == 8

    def test_encode_flags_respect_registry(self):
        reg = Registry()
        reg.allocate(0)
        batches = schedule_epoch(np.array([1, 1]), 2, reg)
        assert batches[0].members == [0, 1]
        assert batches[0].encode == [False, True]

    def test_describe_payload(self):
        reg = Registry()
        reg.allocate(4)
        batch = ScheduleBatch(members=[4, 9], degree=1, encode=[False, True])
        assert describe_payload(batch, reg) == [("addr", 0), ("embed", 9)]

    def test_rejects_zero_engines(self):
        with pytest.raises(ValueError):
            schedule_epoch(np.array([1]), 0, Registry())


class TestCache:
    def test_lru_hand_trace(self):
        cache = Cache(2, "lru")
        outcomes = [cache.access(v) for v in (1, 2, 1, 3, 2, 3)]
        assert outcomes == [False, False, True, False, False, True]
        assert cache.hits == 2 and cache.misses == 4 and cache.evictions == 2
        assert cache.resident == {2, 3}

    def test_lfu_evicts_least_frequent(self):
        cache = Cache(2, "lfu")
        for v in (1, 2, 2, 3):
            cache.access(v)
        assert cache.resident == {2, 3}
        assert cache.evictions == 1

    def test_lfu_ties_break_by_age(self):
        cache = Cache(2, "lfu")
        for v in (1, 2, 3):  # all frequency 1: oldest (1) goes
            cache.access(v)
        assert cache.resident == {2, 3}

    def test_random_policy_seeded(self):
        def run(seed):
            cache = Cache(4, "random", seed=seed)
            gen = np.random.default_rng(0)
            for v in gen.integers(0, 20, 300):
                cache.access(int(v))
            return cache.resident, cache.hits
        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_zero_capacity_always_misses(self):
        cache = Cache(0, "lru")
        assert not cache.access(1)
        assert not cache.access(1)
        assert cache.misses == 2 and cache.evictions == 0
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = Cache(2, "lru")
        assert cache.hit_rate == 0.0
        cache.access(1)
        cache.access(1)
        assert cache.hit_rate == 0.5

    def test_capacity_never_exceeded(self):
        for policy in ("lru", "lfu", "random"):
            cache = Cache(3, policy)
            gen = np.random.default_rng(5)
            for v in gen.integers(0, 50, 500):
                cache.access(int(v))
            assert len(cache) <= 3

    def test_lfu_matches_linear_scan_oracle_with_bounded_heap(self):
        # Oracle: evict the minimum (freq, last touch, vid) by a full scan.
        capacity = 8
        cache = Cache(capacity, "lfu")
        meta, hits, misses, evictions = {}, 0, 0, 0
        gen = np.random.default_rng(3)
        stream = gen.zipf(1.3, 20000) % 60
        for clock, v in enumerate(stream.tolist(), start=1):
            if v in meta:
                meta[v] = (meta[v][0] + 1, clock)
                hits += 1
                expected_hit = True
            else:
                misses += 1
                if len(meta) >= capacity:
                    victim = min(meta, key=lambda u: (*meta[u], u))
                    del meta[victim]
                    evictions += 1
                meta[v] = (1, clock)
                expected_hit = False
            assert cache.access(v) == expected_hit
            assert cache.resident == set(meta)
            assert len(cache._heap) <= LFU_HEAP_SLACK * capacity
        assert (cache.hits, cache.misses, cache.evictions) == (hits, misses, evictions)
        assert evictions > 1000

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Cache(-1, "lru")
        with pytest.raises(ValueError):
            Cache(4, "mru")


def tiny_workload(V=120, E=600, R=4, seed=7):
    degrees = skewed_degrees(V, E, seed=seed)
    neighbors_of = neighbors_from_degrees(degrees, R, seed=seed)
    return degrees, neighbors_of


class TestReplay:
    def test_traffic_equals_misses_times_row_bytes(self):
        degrees, neighbors_of = tiny_workload()
        cfg = PRESETS["u50"]
        reg = Registry()
        cache = Cache(64, "lru")
        batches = schedule_epoch(degrees, cfg.mem_engines, reg)
        stats = replay_schedule(batches, neighbors_of, cache, reg,
                                d=96, D=256, cfg=cfg)
        assert stats.fetch_bytes == stats.misses * 256 * cfg.elem_bytes
        assert stats.encode_write_bytes == stats.encodes * 256 * cfg.elem_bytes

    def test_cold_pass_encodes_every_vertex(self):
        degrees, neighbors_of = tiny_workload()
        cfg = PRESETS["u50"]
        reg = Registry()
        batches = schedule_epoch(degrees, cfg.mem_engines, reg)
        stats = replay_schedule(batches, neighbors_of, Cache(32, "lfu"), reg,
                                d=96, D=256, cfg=cfg)
        assert stats.encodes == len(degrees)
        assert len(reg) == len(degrees)

    def test_warm_pass_encodes_nothing(self):
        degrees, neighbors_of = tiny_workload()
        cfg = PRESETS["u50"]
        reg = Registry()
        cache = Cache(32, "lfu")
        first = schedule_epoch(degrees, cfg.mem_engines, reg)
        replay_schedule(first, neighbors_of, cache, reg, d=96, D=256, cfg=cfg)
        second = schedule_epoch(degrees, cfg.mem_engines, reg)
        stats = replay_schedule(second, neighbors_of, cache, reg,
                                d=96, D=256, cfg=cfg)
        assert stats.encodes == 0

    def test_host_payload_accounting(self):
        degrees, neighbors_of = tiny_workload(V=40, E=200)
        cfg = PRESETS["u50"]
        reg = Registry()
        batches = schedule_epoch(degrees, cfg.mem_engines, reg)
        stats = replay_schedule(batches, neighbors_of, Cache(16, "lru"), reg,
                                d=96, D=256, cfg=cfg)
        n_edges = int(degrees.sum())
        expected = (40 * 96 * cfg.elem_bytes          # embedding rows
                    + n_edges * cfg.ctrl_bytes_per_edge)
        assert stats.host_payload_bytes == expected

    def test_mem_cycles_follow_max_degree(self):
        degrees = np.array([3, 5])
        tails = {0: np.arange(3), 1: np.arange(5)}
        cfg = PRESETS["u50"]

        def run(n_engines, D):
            reg = Registry()
            batches = schedule_epoch(degrees, n_engines, reg)
            return replay_schedule(batches, lambda v: (tails[v], None),
                                   Cache(0, "lru"), reg, d=96, D=D, cfg=cfg)

        # separate single-vertex batches: ceil(3*256/8) + ceil(5*256/8)
        assert run(1, 256).mem_cycles == 96 + 160
        # packed into one batch: the slowest member sets the pace
        assert run(2, 256).mem_cycles == 160
        # doubling D doubles the element stream per engine
        assert run(2, 512).mem_cycles == 320


    def test_evictions_are_the_cache_delta(self):
        degrees, neighbors_of = tiny_workload()
        cfg = PRESETS["u50"]
        reg = Registry()
        cache = Cache(16, "lfu")
        for _ in range(2):
            before = cache.evictions
            batches = schedule_epoch(degrees, cfg.mem_engines, reg)
            stats = replay_schedule(batches, neighbors_of, cache, reg,
                                    d=96, D=256, cfg=cfg)
            assert stats.evictions == cache.evictions - before > 0


class TestSimulate:
    @pytest.mark.parametrize("policy", ["lru", "lfu", "random"])
    def test_report_evictions_match_the_cache(self, policy):
        degrees, neighbors_of = tiny_workload()
        cfg = dataclasses.replace(PRESETS["u50"], cache_slots=16, cache_policy=policy)
        report = simulate(degrees, neighbors_of, 4, 600, d=96, D=256, cfg=cfg, seed=3)
        reg = Registry()
        cache = Cache(16, policy, seed=3)
        deltas = []
        for _ in range(2):
            before = cache.evictions
            replay_schedule(schedule_epoch(degrees, cfg.mem_engines, reg),
                            neighbors_of, cache, reg, d=96, D=256, cfg=cfg)
            deltas.append(cache.evictions - before)
        assert [report.cold["evictions"], report.warm["evictions"]] == deltas
        # a cache that starts empty and fills evicts every miss but the first
        # `capacity` ones
        misses = report.cold["misses"] + report.warm["misses"]
        assert sum(deltas) == misses - 16

    def test_report_structure_and_arithmetic(self):
        degrees, neighbors_of = tiny_workload()
        cfg = PRESETS["u50"]
        report = simulate(degrees, neighbors_of, n_relations=4, n_train=600,
                          d=96, D=256, cfg=cfg)
        assert report.n_vertices == 120
        assert report.n_edges == int(degrees.sum())
        assert report.cold["encodes"] == 120
        assert report.warm["encodes"] == 0
        for stage in ("memorize", "score", "train"):
            entry = report.stages[stage]
            assert entry["bound_s"] == max(entry["compute_s"], entry["traffic_s"])
        latency_s = report.single_batch_latency_ms / 1e3
        parts = (report.stages["memorize"]["bound_s"]
                 + report.stages["score"]["bound_s"]
                 + report.stages["train"]["bound_s"] + cfg.host_overhead_s)
        assert latency_s == pytest.approx(parts, rel=1e-12)
        assert report.steady_epoch_s == pytest.approx(
            latency_s * report.n_train_batches, rel=1e-12)

    def test_score_stage_oracle(self):
        degrees, neighbors_of = tiny_workload()
        cfg = PRESETS["u50"]
        report = simulate(degrees, neighbors_of, 4, 600, d=96, D=256, cfg=cfg)
        expected = cfg.batch_size * 120 * 256 / (cfg.score_ops_per_cycle * cfg.clock_hz)
        assert report.stages["score"]["compute_s"] == pytest.approx(expected)

    def test_chunk_width_does_not_change_the_model(self):
        # The train stage's work is linear in the chunk width, so only the
        # config echo may differ between chunk widths.
        degrees, neighbors_of = tiny_workload()
        reports = []
        for T in (1, 7, 32, 120):
            cfg = dataclasses.replace(PRESETS["u50"], chunk_T=T)
            report = dataclasses.asdict(
                simulate(degrees, neighbors_of, 4, 600, d=96, D=256, cfg=cfg))
            assert report.pop("config")["chunk_T"] == T
            reports.append(report)
        assert all(r == reports[0] for r in reports[1:])
        cfg = PRESETS["u50"]
        assert reports[0]["stages"]["train"]["compute_s"] == pytest.approx(
            120 * 256 * (cfg.batch_size + 96 + 1)
            / (cfg.train_macs_per_cycle * cfg.clock_hz), rel=1e-15)

    def test_doubling_bandwidth_halves_fetch_time(self):
        degrees, neighbors_of = tiny_workload()
        cfg = PRESETS["u50"]
        fast = dataclasses.replace(cfg, device_bytes_per_s=2 * cfg.device_bytes_per_s)
        a = simulate(degrees, neighbors_of, 4, 600, d=96, D=256, cfg=cfg)
        b = simulate(degrees, neighbors_of, 4, 600, d=96, D=256, cfg=fast)
        assert b.stages["memorize"]["traffic_s"] == pytest.approx(
            a.stages["memorize"]["traffic_s"] / 2)

    def test_deterministic_json(self):
        degrees, neighbors_of = tiny_workload()
        cfg = dataclasses.replace(PRESETS["u50"], cache_policy="random",
                                  cache_slots=16)
        a = simulate(degrees, neighbors_of, 4, 600, d=96, D=256, cfg=cfg, seed=3)
        b = simulate(degrees, neighbors_of, 4, 600, d=96, D=256, cfg=cfg, seed=3)
        assert a.to_json() == b.to_json()
        json.loads(a.to_json())  # valid JSON


class TestSweep:
    def test_grid_and_monotone_hit_rates(self):
        degrees, neighbors_of = tiny_workload(V=200, E=1200)
        cfg = PRESETS["u50"]
        capacities = (8, 16, 32, 64)
        rows = sweep_capacities(degrees, neighbors_of, 4, 1200, 96, 256, cfg,
                                capacities, ("lru", "lfu"))
        assert len(rows) == 8
        for policy in ("lru", "lfu"):
            rates = [r["hit_rate"] for r in rows if r["policy"] == policy]
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_rows_internally_consistent(self):
        degrees, neighbors_of = tiny_workload(V=100, E=500)
        cfg = PRESETS["u50"]
        rows = sweep_capacities(degrees, neighbors_of, 4, 500, 96, 256, cfg,
                                (16,), ("lru",))
        row = rows[0]
        assert set(row) == set(SWEEP_FIELDS)
        assert row["bytes_hbm"] >= 0 and 0 <= row["hit_rate"] <= 1

    def test_csv_output(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [{"capacity": 8, "policy": "lru", "hit_rate": 0.5,
                                "bytes_hbm": 1024, "latency_model_ms": 1.5}])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_FIELDS)
        assert lines[1] == "8,lru,0.5,1024,1.5"


class TestPresets:
    def test_larger_board_is_never_slower(self):
        degrees, neighbors_of = tiny_workload(V=300, E=1800)
        a = simulate(degrees, neighbors_of, 4, 1800, 96, 256, PRESETS["u50"])
        b = simulate(degrees, neighbors_of, 4, 1800, 96, 256, PRESETS["u280"])
        assert b.single_batch_latency_ms <= a.single_batch_latency_ms

    def test_preset_table(self):
        assert PRESETS["u280"].mem_engines == 2 * PRESETS["u50"].mem_engines
        assert PRESETS["u280"].cache_slots == 2 * PRESETS["u50"].cache_slots
