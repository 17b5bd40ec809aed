"""Toy-size smoke test of the benchmark: one round of each workload's code path.

Run with ``python3 -m pytest bench/test_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
import spans  # noqa: E402
from graphs import synthetic_splits  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY_SCALE = {"fb15k237-small": 0.08, "wn18rr-small-dense": 0.03, "fb15k237": 0.02}


def toy(name: str) -> harness.Workload:
    workload = harness.WORKLOADS[name]
    return dataclasses.replace(workload, shape=workload.shape.scaled(TOY_SCALE[name]),
                               eval_queries=32, cache_slots=workload.cache_slots // 16)


def run_toy(name: str, tmp_path: Path, traced: bool) -> harness.Run:
    workload = toy(name)
    dataset = tmp_path / "dataset.hdkg"
    harness.write_dataset(workload.shape, 5, dataset)
    run = harness.Run(workload, 5, dataset)
    if traced:
        run.tracer = spans.Tracer(run.cfg.label_smoothing)
        run.tracer.install()
    try:
        run.execute(seconds=0.0)
    finally:
        if traced:
            run.tracer.uninstall()
    return run


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_one_round_passes_every_check(name, tmp_path):
    run = run_toy(name, tmp_path, traced=False)
    # set-ups, the filter check, warm-up and one measured round, gradient check
    assert run.attempted == harness.SETUP_REPEATS + 1 + 5 + 5 + 1
    assert run.failed == 0
    assert run.fd_relative_error < harness.FD_RTOL
    metrics = run.end_to_end()
    assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_traced_round_reports_every_layer_metric(tmp_path):
    run = run_toy("wn18rr-small-dense", tmp_path, traced=True)
    assert run.failed == 0
    values, absent = spans.layer_metrics(run.tracer, run.sim_report)
    assert set(values) == {m["name"] for m in DECLARED["per_layer"]}
    assert absent == []
    assert values["model.backward_hw_s"] > 0 and values["model.backward_ref_s"] > 0
    assert values["model.backward_peak_alloc_mb"] > 0
    timed = [s for s in run.tracer.spans if s.name == "model.chunked_backward"
             and s.phase != "alloc"]
    assert timed and not any("peak_alloc" in s.counts for s in timed)
    assert values["sim.accesses"] == 2 * run.n_edges
    assert values["kg.triples_indexed"] == 2 * len(run.session.kg.train) + \
        len(run.session.kg.valid) + len(run.session.kg.test)


def test_generator_is_seeded_and_splits_are_disjoint():
    shape = toy("fb15k237-small").shape
    first = synthetic_splits(shape, 3)
    again = synthetic_splits(shape, 3)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    triples = np.concatenate(first)
    assert [len(s) for s in first] == [shape.n_train, shape.n_valid, shape.n_test]
    assert len(np.unique(triples, axis=0)) == len(triples)
    assert not (triples[:, 0] == triples[:, 2]).any()
    other = np.concatenate(synthetic_splits(shape, 4))
    assert not np.array_equal(triples, other)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fb15k237", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
