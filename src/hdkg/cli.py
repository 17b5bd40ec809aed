"""Command-line interface.

Commands: ingest, train, eval, reconstruct, simulate, quantize-eval,
drop-dims-eval.  Every command takes ``--preset``, ``--config`` and per-key
override flags; precedence is defaults < preset < file < flags.  Artifacts
land in --out-dir (default: $HDKG_OUTPUT_DIR or the working directory) and
embed the format version, configuration hash, and seed.

Exit codes: 0 success, 2 configuration error, 3 data or artifact error,
4 numeric breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, build_config, config_hash
from .errors import (CheckpointFormatError, ConfigError, DatasetFormatError,
                     HdkgError, NumericError)
from .kg import (KnowledgeGraph, add_reciprocal, dataset_stats, degree_histogram,
                 load_cache, load_dataset, save_cache, tail_index)
from .model import (ModelState, OptimizerConfig, TrainConfig, Trainer)
from .ranking import (ScoringView, append_metrics_jsonl, metrics, rank_queries,
                      reconstruct_neighbors, write_metrics_csv, write_metrics_json)
from .robustness import FixedPointSpec, drop_dims, quantized_view
from .sim.cost import PRESETS, simulate, sweep_capacities, write_sweep_csv

COMMANDS = ("ingest", "train", "eval", "reconstruct", "simulate",
            "quantize-eval", "drop-dims-eval")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdkg",
        description="Hyperdimensional knowledge graph completion and accelerator model")
    parser.add_argument("--version", action="version", version=f"hdkg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="flat key=value config file")
        cmd.add_argument("--run-preset", default=None,
                         help="packaged base config (e.g. fb15k237)")
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            cmd.add_argument(flag, dest=f.name, default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return build_config(preset=args.run_preset, config_path=args.config,
                        overrides=overrides)


def _load_graph(cfg: RunConfig) -> KnowledgeGraph:
    if not cfg.dataset:
        raise ConfigError("dataset path is required")
    path = Path(cfg.dataset)
    kg = load_cache(path) if path.suffix == ".hdkg" else load_dataset(path)
    if cfg.reciprocal and not kg.augmented:
        kg = add_reciprocal(kg)
    return kg


def _dtype(cfg: RunConfig):
    return np.float32 if cfg.dtype == "float32" else np.float64


def _stamp(cfg: RunConfig) -> dict:
    return {"seed": cfg.seed, "config_hash": config_hash(cfg).hex(),
            "version": __version__}


def _load_model(cfg: RunConfig) -> tuple[KnowledgeGraph, ModelState]:
    """The graph and the checkpoint's model, checked to agree in shape."""
    kg = _load_graph(cfg)
    if not cfg.checkpoint:
        raise ConfigError("checkpoint path is required")
    state, _ = load_checkpoint(cfg.checkpoint)
    if len(state.e_v) != kg.n_entities or len(state.e_r) != kg.n_relations:
        raise CheckpointFormatError(
            f"checkpoint shapes ({len(state.e_v)} vertices, {len(state.e_r)} "
            f"relations) do not match the dataset "
            f"({kg.n_entities} vertices, {kg.n_relations} relations)")
    return kg, state


def cmd_ingest(cfg: RunConfig) -> int:
    # The cache keeps the graph as read; the other commands add reciprocals.
    kg = _load_graph(replace(cfg, reciprocal=False))
    out = cfg.resolved_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    save_cache(kg, out / "dataset.hdkg")
    stats = dataset_stats(kg) | _stamp(cfg)
    stats["degree_histogram_buckets"] = len(degree_histogram(kg))
    write_metrics_json(out / "dataset_stats.json", stats)
    print(f"ingested {cfg.dataset}: {stats['n_entities']} entities, "
          f"{stats['n_relations']} relations, {stats['n_train']} train triples")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    kg = _load_graph(cfg)
    state = ModelState.create(kg.n_entities, kg.n_relations, cfg.d, cfg.D,
                              cfg.seed, dtype=_dtype(cfg))
    train_cfg = TrainConfig(
        batch_size=cfg.batch_size, chunk_T=cfg.chunk_T, mode=cfg.mode,
        label_smoothing=cfg.label_smoothing,
        optimizer=OptimizerConfig(lr=cfg.lr, momentum=cfg.momentum,
                                  adaptive=cfg.adaptive,
                                  bias_trainable=cfg.bias_trainable))
    trainer = Trainer(state, kg, train_cfg, cfg.seed)
    out = cfg.resolved_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "train_metrics.jsonl"
    timing_path = out / "train_timing.jsonl"
    metrics_path.write_text("")
    timing_path.write_text("")
    for _ in range(cfg.epochs):
        stats = trainer.train_epoch()
        append_metrics_jsonl(metrics_path, {
            "epoch": stats["epoch"], "loss": stats["loss"],
            "mode": cfg.mode} | _stamp(cfg))
        append_metrics_jsonl(timing_path, {
            "epoch": stats["epoch"], "stage_seconds": stats["stage_seconds"]})
        print(f"epoch {stats['epoch']}: loss {stats['loss']:.6f}")
    save_checkpoint(out / "model.hdck", state, cfg.seed, config_hash(cfg),
                    mode=cfg.mode, lr=cfg.lr, momentum=cfg.momentum,
                    label_smoothing=cfg.label_smoothing,
                    bias_trainable=cfg.bias_trainable, adaptive=cfg.adaptive)
    print(f"checkpoint written to {out / 'model.hdck'}")
    return 0


def _eval_view(cfg: RunConfig, view, kg: KnowledgeGraph, mode_label: str,
               stem: str = "eval_metrics") -> int:
    queries = getattr(kg, cfg.split)
    if len(queries) == 0:
        raise DatasetFormatError(f"split {cfg.split!r} is empty")
    findex = tail_index(kg.train, kg.valid, kg.test) if cfg.filtered else None
    ranks = rank_queries(view, queries, findex, filtered=cfg.filtered,
                         batch_size=cfg.eval_batch)
    results = metrics(ranks)
    out = cfg.resolved_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    row = {"split": cfg.split, "mode": mode_label, **results,
           "seed": cfg.seed, "config_hash": config_hash(cfg).hex()}
    write_metrics_json(out / f"{stem}.json", row | {"version": __version__})
    write_metrics_csv(out / f"{stem}.csv", [row])
    print(f"{cfg.split} {mode_label}: mrr {results['mrr']:.4f} "
          f"hits@1 {results['hits1']:.4f} hits@3 {results['hits3']:.4f} "
          f"hits@10 {results['hits10']:.4f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    kg, state = _load_model(cfg)
    state.refresh(kg)
    label = "filtered" if cfg.filtered else "raw"
    return _eval_view(cfg, ScoringView.from_state(state), kg, label)


def cmd_quantize_eval(cfg: RunConfig) -> int:
    kg, state = _load_model(cfg)
    spec = FixedPointSpec(cfg.fix_bits, cfg.frac_bits)
    view = quantized_view(state, kg, spec)
    label = f"fix{cfg.fix_bits}.{cfg.frac_bits}"
    return _eval_view(cfg, view, kg, label, stem="quantize_metrics")


def cmd_drop_dims_eval(cfg: RunConfig) -> int:
    kg, state = _load_model(cfg)
    state.refresh(kg)
    view, kept = drop_dims(ScoringView.from_state(state), cfg.drop_frac,
                           cfg.drop_strategy, seed=cfg.seed)
    label = f"drop{cfg.drop_frac:g}.{cfg.drop_strategy}"
    code = _eval_view(cfg, view, kg, label, stem="drop_dims_metrics")
    print(f"kept {len(kept)} of {cfg.D} dimensions")
    return code


def cmd_reconstruct(cfg: RunConfig) -> int:
    kg, state = _load_model(cfg)
    state.refresh(kg)
    if not 0 <= cfg.vertex < kg.n_entities:
        raise ConfigError(f"vertex {cfg.vertex} out of range")
    relation = None if cfg.relation < 0 else cfg.relation
    if relation is not None and relation >= kg.n_relations:
        raise ConfigError(f"relation {relation} out of range")
    order, sims = reconstruct_neighbors(state, cfg.vertex, relation, cfg.metric)
    out = cfg.resolved_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "vertex": cfg.vertex, "relation": cfg.relation, "metric": cfg.metric,
        "candidates": [
            {"vertex": int(v), "name": kg.entities[int(v)], "score": float(s)}
            for v, s in zip(order[:cfg.topk], sims[:cfg.topk])
        ],
    } | _stamp(cfg)
    write_metrics_json(out / "reconstruct.json", payload)
    for item in payload["candidates"]:
        print(f"{item['vertex']:8d}  {item['score']:+.6f}  {item['name']}")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    kg = _load_graph(cfg)
    if cfg.preset not in PRESETS:
        raise ConfigError(f"unknown cost preset {cfg.preset!r}")
    cost = PRESETS[cfg.preset]
    cost = replace(
        cost,
        batch_size=cfg.batch_size, chunk_T=cfg.chunk_T,
        mem_engines=cfg.n_engines or cost.mem_engines,
        cache_slots=cfg.cache_slots or cost.cache_slots,
        cache_policy=cfg.cache_policy or cost.cache_policy)
    degrees = kg.degrees()
    report = simulate(degrees, kg.neighbors, kg.n_relations, len(kg.train),
                      cfg.d, cfg.D, cost, seed=cfg.seed)
    out = cfg.resolved_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    payload = json.loads(report.to_json()) | _stamp(cfg)
    write_metrics_json(out / "simreport.json", payload)
    capacities = [int(c) for c in cfg.sweep_capacities.split(",")]
    policies = [p.strip() for p in cfg.sweep_policies.split(",")]
    rows = sweep_capacities(degrees, kg.neighbors, kg.n_relations, len(kg.train),
                            cfg.d, cfg.D, cost, capacities, policies,
                            seed=cfg.seed)
    write_sweep_csv(out / "cache_sweep.csv", rows)
    print(f"single-batch latency {report.single_batch_latency_ms:.3f} ms, "
          f"warm hit rate {report.warm['hit_rate']:.3f}")
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "eval": cmd_eval,
    "reconstruct": cmd_reconstruct,
    "simulate": cmd_simulate,
    "quantize-eval": cmd_quantize_eval,
    "drop-dims-eval": cmd_drop_dims_eval,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DatasetFormatError, CheckpointFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except HdkgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
