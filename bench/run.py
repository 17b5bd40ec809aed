#!/usr/bin/env python3
"""Benchmark of hdkg training, filtered evaluation and the accelerator simulator.

Run from the repository root:

    python3 bench/run.py --workload fb15k237 --seed 1 --seconds 10 --trace 0

It imports hdkg from ``src/`` next to this directory, writes the workload's
synthetic dataset under ``.bench_work/``, and prints one JSON object as the
last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` spans around each layer's public functions give the per-layer
metrics instead.  The line before it describes the run and the host.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(handle, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def host_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; rounds start until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hdkg" / "__init__.py").is_file():
        print(f"error: hdkg sources not found at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import harness
    import spans

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        dataset = workdir / "dataset.hdkg"
        harness.write_dataset(workload.shape, args.seed, dataset)
        run = harness.Run(workload, args.seed, dataset)
        if args.trace:
            tracer = run.tracer = spans.Tracer(run.cfg.label_smoothing)
            tracer.install()
        run.execute(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = run.end_to_end()
    info = {"workload": args.workload, "seed": args.seed, "rounds": run.rounds - 1,
            "samples": {k: len(v) for k, v in run.samples.items()},
            "fd_relative_error": run.fd_relative_error} | host_info()
    if tracer is None:
        values, listed = end_to_end, declared["end_to_end"]
    else:
        values, info["absent"] = spans.layer_metrics(tracer, run.sim_report)
        listed = declared["per_layer"]
        info["end_to_end_traced"] = end_to_end
    # Units come from BENCHMARK.json, the one place they are declared.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
