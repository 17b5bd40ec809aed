"""Release acceptance checks, one verdict line per check.

Every check records ``[acceptance] NN name: PASS/FAIL (detail)``; the lines
are echoed together after the run summary (see conftest) so they stay
visible even though passing tests' stdout is captured.  Checks that need the
public benchmark datasets skip with an explanatory line unless
HDKG_DATA_ROOT names a directory containing <dataset>/train.txt; each of
those has a self-contained companion on synthetic data of matching scale or
structure, so the invariants are exercised either way.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    DATA_ROOT_ENV,
    VERDICTS,
    make_graph,
    memorize_matrix_form,
    neighbors_from_degrees,
    planted_graph,
    real_dataset_dir,
    skewed_degrees,
)
from test_model import analytic_grads, fresh_state, max_rel_err, numeric_grads

from hdkg import hdc
from hdkg.cli import main
from hdkg.kg import add_reciprocal, load_dataset, tail_index
from hdkg.model import (
    ModelState,
    OptimizerConfig,
    TrainConfig,
    Trainer,
    backward,
    chunked_backward,
    loss_and_delta,
    memorize_edge_list,
    score_batch,
)
from hdkg.ranking import ScoringView, metrics, rank_queries
from hdkg.robustness import FixedPointSpec, drop_dims, quantized_view
from hdkg.sim.cache import Cache
from hdkg.sim.cost import PRESETS, replay_schedule, simulate
from hdkg.sim.scheduler import Registry, schedule_epoch


def _record(line: str) -> None:
    VERDICTS.append(line)
    print(line)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    _record(line)
    assert ok, line


def _skip_note(tag: str, name: str) -> None:
    _record(f"[acceptance] {tag}: SKIP (needs ${DATA_ROOT_ENV}/{name}/train.txt)")


def _gated_dataset(tag: str, name: str):
    """Resolve a real dataset directory, recording the skip verdict if absent."""
    try:
        return real_dataset_dir(name)
    except BaseException:
        _skip_note(tag, name)
        raise


def run_cli(*argv) -> int:
    return main(list(argv))


def _filtered_mrr(view, kg, queries) -> float:
    index = tail_index(kg.train, kg.valid, kg.test)
    return metrics(rank_queries(view, queries, index, filtered=True))["mrr"]


# Entity/edge/relation counts of the three public benchmarks, used to build
# synthetic workloads of the same shape for the simulator checks.
REAL_SCALES = {
    "FB15K-237": (14541, 272115, 237),
    "WN18RR": (40943, 86835, 11),
    "YAGO3-10": (123182, 1079040, 37),
}


def scale_workload(name, seed=1):
    n_vertices, n_edges, n_relations = REAL_SCALES[name]
    degrees = skewed_degrees(n_vertices, n_edges, seed=seed)
    neighbors_of = neighbors_from_degrees(degrees, n_relations, seed=seed)
    return degrees, neighbors_of, n_relations, n_edges


@pytest.fixture(scope="module")
def fb_scale():
    return scale_workload("FB15K-237")


def test_01_gradients_match_finite_differences():
    kg = make_graph(20, 3, 60, seed=13)
    state = fresh_state(kg, d=8, D=32, seed=13)
    subjects = kg.train[:4, 0].copy()
    rels = kg.train[:4, 1].copy()
    index = tail_index(kg.train)
    targets = [index[(int(s), int(r))] for s, r in zip(subjects, rels)]

    got = analytic_grads(kg, state, subjects, rels, targets)
    want = numeric_grads(kg, state, subjects, rels, targets, h=1e-5)
    err = max(max_rel_err(got.e_v, want.e_v), max_rel_err(got.e_r, want.e_r),
              max_rel_err(np.array(got.bias), np.array(want.bias)))
    _verdict("01 gradient-check", err < 1e-4,
             f"max relative error {err:.3e} < 1e-4 vs central differences")


def test_02_memorize_routes_agree():
    worst = 0.0
    for k in range(100):
        n_vertices = 5 + (k * 7) % 46
        n_relations = 1 + k % 5
        kg = make_graph(n_vertices, n_relations, 2 * n_vertices, seed=k,
                        allow_dup=(k % 3 == 0))
        state = ModelState.create(n_vertices, n_relations, d=6, D=48, seed=k)
        state.refresh(kg)
        M_edges, _ = memorize_edge_list(kg, state.H_v, state.H_r)
        M_matrix = memorize_matrix_form(kg, state.H_v, state.H_r)
        worst = max(worst, float(np.abs(M_edges - M_matrix).max()))
    _verdict("02 memorize-equivalence", worst <= 1e-10,
             f"edge-list vs matrix route, 100 graphs, max abs diff {worst:.2e}")


def test_03_chunked_backward_equals_monolithic():
    kg = make_graph(30, 3, 90, seed=4)
    index = tail_index(kg.train)
    subjects = kg.train[:8, 0].copy()
    rels = kg.train[:8, 1].copy()
    targets = [index[(int(s), int(r))] for s, r in zip(subjects, rels)]
    worst = 0.0
    for mode in ("reference", "hardware"):
        state = fresh_state(kg, d=6, D=16, seed=4)
        sig = score_batch(state, subjects, rels)
        _, delta = loss_and_delta(sig, targets, kg.n_entities)
        full = backward(state, kg, sig, delta, mode=mode)
        for T in (1, 7, kg.n_entities):
            part = chunked_backward(state, kg, sig, delta, T=T, mode=mode)
            worst = max(worst,
                        float(np.abs(full.e_v - part.e_v).max()),
                        float(np.abs(full.e_r - part.e_r).max()),
                        abs(full.bias - part.bias))
    _verdict("03 chunked-backward", worst <= 1e-12,
             f"chunk widths 1/7/|V|, both modes, max abs diff {worst:.2e}")


def test_04_memory_readout_recovers_neighbors():
    above, total = 0, 0
    for seed in range(10):
        kg = make_graph(50, 3, 120, seed=seed, max_out=5)
        state = ModelState.create(50, 3, d=64, D=8192, seed=seed)
        state.refresh(kg)
        groups: dict[tuple[int, int], list[int]] = {}
        for h, r, t in kg.train.tolist():
            groups.setdefault((h, r), []).append(t)
        for (h, r), tails in groups.items():
            bound = state.H_v * state.H_r[r]
            sims = hdc.similarity(state.M_v[h], bound, "cosine").ravel()
            others = np.setdiff1d(np.arange(50), np.asarray(tails))
            cutoff = float(np.median(sims[others]))
            above += int((sims[np.asarray(tails)] > cutoff).sum())
            total += len(tails)
    frac = above / total
    _verdict("04 neighborhood-readout", frac >= 0.95,
             f"{frac:.1%} of stored neighbors above the median non-neighbor "
             f"similarity ({above}/{total}, 10 seeds, D=8192)")


def test_05_shared_gradient_caching():
    kg = make_graph(40, 3, 120, seed=9)
    state = fresh_state(kg, d=5, D=32, seed=9)
    subjects = np.array([0, 1, 2])          # unique, as are the relations,
    rels = np.array([0, 1, 2])              # so per-member rows stay separable
    index = tail_index(kg.train)
    targets = [index.get((int(s), int(r)), np.array([s])) for s, r in
               zip(subjects, rels)]

    sig = score_batch(state, subjects, rels, cache_signs=True)
    naive_signs = np.sign(sig.Q[:, None, :] - state.M_v[None, :, :])
    signs_exact = bool((sig.S == naive_signs).all())

    naive_G = np.zeros_like(state.G)
    for i in range(kg.n_entities):
        _, out_rels = kg.neighbors(i)
        if len(out_rels):
            naive_G[i] = state.H_r[out_rels].sum(axis=0)
    G_exact = bool(np.array_equal(state.G, naive_G))

    _, delta = loss_and_delta(sig, targets, kg.n_entities)
    grads, internals = chunked_backward(state, kg, sig, delta,
                                        T=kg.n_entities, mode="hardware",
                                        return_internals=True)
    gQ = internals["gQ"]
    rel_rows_match = all(
        np.array_equal(internals["gHr_direct"][int(r)], gQ[j])
        for j, r in enumerate(rels))
    gM = internals["gM_candidates"].copy()
    for j, s in enumerate(subjects):
        gM[int(s)] += gQ[j]
    basemat_t = state.base.data.T
    subj_rows_match = bool(np.array_equal(grads.e_v, (gM * state.G) @ basemat_t))
    rel_path_match = bool(np.array_equal(
        grads.e_r, internals["gHr_direct"] @ basemat_t))

    uncached = score_batch(state, subjects, rels, cache_signs=False)
    regrads = chunked_backward(state, kg, uncached, delta, T=kg.n_entities,
                               mode="hardware")
    cache_free_match = (np.array_equal(grads.e_v, regrads.e_v)
                        and np.array_equal(grads.e_r, regrads.e_r))

    ok = (signs_exact and G_exact and rel_rows_match and subj_rows_match
          and rel_path_match and cache_free_match)
    _verdict("05 shared-gradient-caching", ok,
             "cached signs and relation sums equal naive recomputation; "
             "per-member subject and relation gradient rows are identical")


def test_06_training_descends_and_ranks():
    kg = planted_graph(60, 4, out_per_pair=2, k=6, seed=11, n_test=40)
    state = ModelState.create(kg.n_entities, kg.n_relations, d=16, D=256,
                              seed=11)
    cfg = TrainConfig(batch_size=512, chunk_T=32, mode="reference",
                      label_smoothing=0.1,
                      optimizer=OptimizerConfig(lr=0.01, adaptive=True))
    trainer = Trainer(state, kg, cfg, seed=11)
    losses = [trainer.train_epoch()["loss"] for _ in range(60)]
    state.refresh(kg)

    descending = all(losses[i + 1] < losses[i] for i in range(10))
    view = ScoringView.from_state(state)
    train_mrr = _filtered_mrr(view, kg, kg.train)
    test_mrr = _filtered_mrr(view, kg, kg.test)
    ok = descending and train_mrr >= 0.25 and test_mrr >= 0.20
    _verdict("06 training-descent", ok,
             f"loss {losses[0]:.3f}->{losses[-1]:.3f} strictly decreasing "
             f"through epoch 11: {descending}; filtered MRR train "
             f"{train_mrr:.3f} (floor 0.25), held-out {test_mrr:.3f} "
             f"(floor 0.20, chance ~0.08)")


@pytest.fixture(scope="module")
def fb_run(tmp_path_factory):
    try:
        data = real_dataset_dir("FB15K-237")
    except BaseException:
        # both dependent checks skip before their bodies run
        _skip_note("06 training-descent-real", "FB15K-237")
        _skip_note("07 quantized-scoring-real", "FB15K-237")
        raise
    out = tmp_path_factory.mktemp("fb_run")
    code = run_cli("train", "--dataset", str(data), "--out-dir", str(out),
                   "--run-preset", "fb15k237")
    assert code == 0, "training run on FB15K-237 failed"
    return {"data": data, "out": out}


def _fb_full_mrr(fb_run) -> float:
    path = fb_run["out"] / "eval_metrics.json"
    if not path.exists():
        code = run_cli("eval", "--dataset", str(fb_run["data"]),
                       "--checkpoint", str(fb_run["out"] / "model.hdck"),
                       "--out-dir", str(fb_run["out"]),
                       "--run-preset", "fb15k237", "--split", "test")
        assert code == 0
    return float(json.loads(path.read_text())["mrr"])


def test_06_real_fb15k237_accuracy_floor(fb_run):
    lines = (fb_run["out"] / "train_metrics.jsonl").read_text().splitlines()
    losses = [json.loads(line)["loss"] for line in lines]
    descending = all(losses[i + 1] < losses[i] for i in range(9))
    mrr = _fb_full_mrr(fb_run)
    ok = descending and mrr >= 0.12
    _verdict("06 training-descent-real", ok,
             f"FB15K-237 filtered test MRR {mrr:.4f} (floor 0.12); first ten "
             f"epoch losses strictly decreasing: {descending}")


def test_07_quantized_scoring_direction(hardware_setup):
    kg, state = hardware_setup["kg"], hardware_setup["state"]
    full = _filtered_mrr(ScoringView.from_state(state), kg, kg.train)
    m8 = _filtered_mrr(quantized_view(state, kg, FixedPointSpec(8, 4)), kg,
                       kg.train)
    m4 = _filtered_mrr(quantized_view(state, kg, FixedPointSpec(4, 1)), kg,
                       kg.train)
    drop8 = abs(m8 - full) / full
    ok = m8 >= m4 and drop8 <= 0.35
    _verdict("07 quantized-scoring", ok,
             f"saturation-trained model: MRR full {full:.4f}, fix8.4 "
             f"{m8:.4f} (rel change {drop8:.1%} <= 35%), fix4.1 {m4:.4f}; "
             f"8-bit >= 4-bit")


def test_07_real_fb15k237_quantization(fb_run):
    full = _fb_full_mrr(fb_run)
    got = {}
    for bits, frac in ((8, 4), (4, 1)):
        code = run_cli("quantize-eval", "--dataset", str(fb_run["data"]),
                       "--checkpoint", str(fb_run["out"] / "model.hdck"),
                       "--out-dir", str(fb_run["out"]),
                       "--run-preset", "fb15k237", "--split", "test",
                       "--fix-bits", str(bits), "--frac-bits", str(frac))
        assert code == 0
        row = json.loads(
            (fb_run["out"] / "quantize_metrics.json").read_text())
        got[bits] = float(row["mrr"])
    drop8 = (full - got[8]) / full
    drop4 = (full - got[4]) / full
    ok = drop8 <= 0.10 and drop4 <= 0.15
    _verdict("07 quantized-scoring-real", ok,
             f"FB15K-237 relative MRR drop fix8.4 {drop8:.1%} (<=10%), "
             f"fix4.1 {drop4:.1%} (<=15%)")


def test_08_entropy_guided_drop_beats_random(trained_setup):
    kg, state = trained_setup["kg"], trained_setup["state"]
    view = ScoringView.from_state(state)
    dropped, _ = drop_dims(view, 0.25, "entropy")
    entropy_mrr = _filtered_mrr(dropped, kg, kg.train)
    random_mrrs = [
        _filtered_mrr(drop_dims(view, 0.25, "random", seed=s)[0], kg, kg.train)
        for s in range(5)]
    random_mean = float(np.mean(random_mrrs))
    ok = entropy_mrr >= random_mean
    _verdict("08 entropy-guided-drop", ok,
             f"25% drop on memorized facts: low-entropy-first MRR "
             f"{entropy_mrr:.4f} >= random mean {random_mean:.4f} "
             f"over 5 seeds")


def _schedule_invariants(tag, degrees, neighbors_of, n_engines, cfg):
    registry = Registry()
    cache = Cache(cfg.cache_slots, cfg.cache_policy, seed=0)
    first = schedule_epoch(degrees, n_engines, registry)
    replay_schedule(first, neighbors_of, cache, registry, d=96, D=256, cfg=cfg)
    second = schedule_epoch(degrees, n_engines, registry)
    warm = replay_schedule(second, neighbors_of, cache, registry, d=96, D=256,
                           cfg=cfg)

    sizes_ok = all(len(b.members) <= n_engines for b in first)
    homogeneous = all(len(set(degrees[b.members].tolist())) == 1
                      for b in first if not b.tail)
    covered = np.concatenate([b.members for b in first])
    coverage_ok = bool(np.array_equal(np.sort(covered),
                                      np.arange(len(degrees))))
    warm_flags = sum(sum(b.encode) for b in second)
    ok = (sizes_ok and homogeneous and coverage_ok and warm_flags == 0
          and warm.encodes == 0)
    n_tail = sum(b.tail for b in first)
    _verdict(tag, ok,
             f"{len(first)} batches ({n_tail} tail) cover {len(degrees)} "
             f"vertices exactly; non-tail batches degree-homogeneous, width "
             f"<= {n_engines}; epoch-2 encodes = {warm.encodes}")


def test_09_schedule_invariants(fb_scale):
    degrees, neighbors_of, _, _ = fb_scale
    cfg = PRESETS["u50"]
    _schedule_invariants("09 schedule-invariants", degrees, neighbors_of,
                         cfg.mem_engines, cfg)


def test_09_real_fb15k237_schedule():
    data = _gated_dataset("09 schedule-invariants-real", "FB15K-237")
    kg = add_reciprocal(load_dataset(data))
    cfg = PRESETS["u50"]
    _schedule_invariants("09 schedule-invariants-real", kg.degrees(),
                         kg.neighbors, cfg.mem_engines, cfg)


CAPACITIES = (32, 64, 128, 256)


def _cache_trends(tag, degrees, neighbors_of, n_relations, n_edges):
    rates: dict[str, list[float]] = {}
    traffic_exact = True
    for policy in ("lru", "lfu", "random"):
        rates[policy] = []
        for capacity in CAPACITIES:
            cfg = replace(PRESETS["u50"], cache_slots=capacity,
                          cache_policy=policy)
            report = simulate(degrees, neighbors_of, n_relations, n_edges,
                              d=96, D=256, cfg=cfg, seed=0)
            for phase in (report.cold, report.warm):
                if phase["fetch_bytes"] != phase["misses"] * 256 * cfg.elem_bytes:
                    traffic_exact = False
            rates[policy].append(report.warm["hit_rate"])
    monotone = all(a <= b for policy in ("lru", "lfu")
                   for a, b in zip(rates[policy], rates[policy][1:]))
    lfu_wins = all(f >= r for f, r in zip(rates["lfu"], rates["random"]))
    ok = monotone and lfu_wins and traffic_exact
    _verdict(tag, ok,
             f"LRU {rates['lru'][0]:.3f}->{rates['lru'][-1]:.3f} and LFU "
             f"{rates['lfu'][0]:.3f}->{rates['lfu'][-1]:.3f} monotone over "
             f"capacities {CAPACITIES}; LFU >= random at every point; fetch "
             f"traffic == misses x D x elem bytes exactly")


def test_10_cache_trends_and_traffic(fb_scale):
    degrees, neighbors_of, n_relations, n_edges = fb_scale
    _cache_trends("10 cache-trends", degrees, neighbors_of, n_relations,
                  n_edges)


def test_10_real_fb15k237_cache_trends():
    data = _gated_dataset("10 cache-trends-real", "FB15K-237")
    kg = add_reciprocal(load_dataset(data))
    _cache_trends("10 cache-trends-real", kg.degrees(), kg.neighbors,
                  kg.n_relations, int(kg.degrees().sum()))


def _latency_ratios(tag, workloads):
    latency = {}
    for name, (degrees, neighbors_of, n_relations, n_edges) in workloads.items():
        report = simulate(degrees, neighbors_of, n_relations, n_edges,
                          d=96, D=256, cfg=PRESETS["u50"], seed=0)
        latency[name] = report.single_batch_latency_ms
    wn_ratio = latency["WN18RR"] / latency["FB15K-237"]
    yago_ratio = latency["YAGO3-10"] / latency["FB15K-237"]
    ok = 1.0 <= wn_ratio <= 2.2 and 3.0 <= yago_ratio <= 7.0
    absolutes = ", ".join(f"{k} {v:.2f}ms" for k, v in latency.items())
    _verdict(tag, ok,
             f"WN18RR/FB15K-237 {wn_ratio:.2f} in [1.0, 2.2]; "
             f"YAGO3-10/FB15K-237 {yago_ratio:.2f} in [3, 7]; absolute "
             f"latencies reported, not gated: {absolutes}")


def test_11_latency_ratios(fb_scale):
    workloads = {"FB15K-237": fb_scale}
    for name in ("WN18RR", "YAGO3-10"):
        workloads[name] = scale_workload(name)
    _latency_ratios("11 latency-ratios", workloads)


def test_11_real_latency_ratios():
    workloads = {}
    for name in REAL_SCALES:
        data = _gated_dataset("11 latency-ratios-real", name)
        kg = add_reciprocal(load_dataset(data))
        workloads[name] = (kg.degrees(), kg.neighbors, kg.n_relations,
                           int(kg.degrees().sum()))
    _latency_ratios("11 latency-ratios-real", workloads)


TRAIN_ARGS = ("--d", "8", "--D", "32", "--epochs", "3", "--batch-size", "16",
              "--chunk-T", "8", "--lr", "0.05", "--seed", "7")


def _write_tiny_dataset(root):
    kg = make_graph(12, 2, 40, seed=5, n_valid=4, n_test=4)
    root.mkdir(parents=True, exist_ok=True)
    for name, split in (("train.txt", kg.train), ("valid.txt", kg.valid),
                        ("test.txt", kg.test)):
        lines = [f"e{h}\tr{r}\te{t}" for h, r, t in split.tolist()]
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_12_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "data"
    _write_tiny_dataset(data)
    artifacts = ("model.hdck", "train_metrics.jsonl", "eval_metrics.json",
                 "eval_metrics.csv", "simreport.json", "cache_sweep.csv")
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run_cli("train", "--dataset", str(data), "--out-dir", str(out),
                       *TRAIN_ARGS) == 0
        assert run_cli("eval", "--dataset", str(data), "--out-dir", str(out),
                       "--checkpoint", str(out / "model.hdck"),
                       "--split", "test", *TRAIN_ARGS) == 0
        assert run_cli("simulate", "--dataset", str(data),
                       "--out-dir", str(out), "--preset", "u50",
                       "--sweep-capacities", "4,8",
                       "--sweep-policies", "lru,random", "--seed", "7") == 0
    matched = [name for name in artifacts
               if (tmp_path / "a" / name).read_bytes()
               == (tmp_path / "b" / name).read_bytes()]
    ok = len(matched) == len(artifacts)
    _verdict("12 rerun-determinism", ok,
             f"{len(matched)}/{len(artifacts)} artifacts byte-identical "
             f"across reruns: {', '.join(artifacts)}")
