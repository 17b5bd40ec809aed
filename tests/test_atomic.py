"""Artifacts are written to a temp file and moved into place: a failed write
leaves the previous file intact and no temp file behind."""

import os

import pytest

from conftest import graph_from_triples
from hdkg.atomic import atomic_write
from hdkg.kg import load_cache, save_cache
from hdkg.ranking import write_metrics_csv, write_metrics_json
from hdkg.sim.cost import write_sweep_csv

SWEEP_ROW = {"capacity": 4, "policy": "lru", "hit_rate": 0.5, "bytes_hbm": 64,
             "latency_model_ms": 1.0}


def _rewrite_fails(tmp_path, name, write_good, write_bad, error):
    path = tmp_path / name
    write_good(path)
    before = path.read_bytes()
    with pytest.raises(error):
        write_bad(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_helper_keeps_old_file_when_the_body_raises(tmp_path):
    def partial(path):
        with atomic_write(path) as fh:
            fh.write("half")
            raise RuntimeError("stopped")

    _rewrite_fails(tmp_path, "a.txt", lambda p: p.write_text("whole"), partial, RuntimeError)


def test_helper_gives_the_permissions_of_open(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    with atomic_write(tmp_path / "atomic") as fh:
        fh.write("x")
    assert (os.stat(tmp_path / "atomic").st_mode
            == os.stat(tmp_path / "plain").st_mode)
    assert (tmp_path / "atomic").read_text() == "x"


def test_metrics_json(tmp_path):
    # json.dump has written '{"a": 1, "b": ' when the object fails to serialise
    _rewrite_fails(tmp_path, "m.json", lambda p: write_metrics_json(p, {"mrr": 0.5}),
                   lambda p: write_metrics_json(p, {"a": 1, "b": object()}), TypeError)


def test_metrics_csv(tmp_path):
    _rewrite_fails(tmp_path, "m.csv", lambda p: write_metrics_csv(p, [{"split": "test"}]),
                   lambda p: write_metrics_csv(p, [{"split": "valid"}, None]),
                   AttributeError)


def test_sweep_csv(tmp_path):
    _rewrite_fails(tmp_path, "s.csv", lambda p: write_sweep_csv(p, [SWEEP_ROW]),
                   lambda p: write_sweep_csv(p, [SWEEP_ROW, {"capacity": 8}]), KeyError)


def test_dataset_cache(tmp_path):
    kg = graph_from_triples([(0, 0, 1)], 2, 1)
    bad = graph_from_triples([(0, 0, 1)], 2, 1)
    bad.relations = [None]       # fails to encode after the entity names are written
    _rewrite_fails(tmp_path, "g.hdkg", lambda p: save_cache(kg, p),
                   lambda p: save_cache(bad, p), AttributeError)
    assert load_cache(tmp_path / "g.hdkg").entities == kg.entities
