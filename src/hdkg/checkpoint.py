"""Binary model checkpoints.

Layout (all little-endian), version 1:

    magic      4s   b"HDCK"
    version    u32
    d, D       u32, u32
    n_entities u64
    n_relations u64
    seed       u64
    flags      u32   bit 0: hardware backward mode
                     bit 1: retired (the "bias plus norm" score sign, no
                            longer supported); never written, rejected on load
                     bit 2: retired (a linear encoder without tanh, no
                            longer supported); never written, rejected on load
                     bit 3: bias frozen
                     bit 4: adaptive optimizer scaling
                     bit 5: float32 compute dtype
                     bits 6-31: unassigned; rejected on load
    optimizer  u32   0 = sgd
    lr, momentum, label_smoothing   f64 each
    prng_tag   16s   zero-padded ascii, e.g. "np-pcg64"
    config_hash 32s  sha256 of the run configuration
    bias       f64
    e_v        n_entities * d f64, row-major
    e_r        n_relations * d f64, row-major

The base matrix is not stored; it regenerates deterministically from the
seed, d and D.  Arrays are always stored as f64 regardless of the compute
dtype, which keeps the format stable and the round-trip exact for both
supported dtypes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import CheckpointFormatError
from .model import ModelState
from .hdc import BaseMatrix
from .rng import GENERATOR_TAG

MAGIC = b"HDCK"
VERSION = 1
_HEADER = "<4sIIIQQQIIddd16s32sd"

FLAG_HARDWARE = 1 << 0
FLAG_RETIRED_SIGN = 1 << 1
FLAG_RETIRED_LINEAR = 1 << 2
FLAG_BIAS_FROZEN = 1 << 3
FLAG_ADAPTIVE = 1 << 4
FLAG_FLOAT32 = 1 << 5
KNOWN_FLAGS = FLAG_HARDWARE | FLAG_BIAS_FROZEN | FLAG_ADAPTIVE | FLAG_FLOAT32

# The base matrix is regenerated from the seed on load, so a header could ask
# for any amount of memory; past this many d x D cells it is taken as corrupt.
MAX_BASE_CELLS = 1 << 24

OPTIMIZER_SGD = 0   # the one optimizer code written
OPTIMIZER_NAMES = {OPTIMIZER_SGD: "sgd"}


def save_checkpoint(path, state: ModelState, seed: int, config_hash: bytes,
                    mode: str = "reference", lr: float = 0.05,
                    momentum: float = 0.0, label_smoothing: float = 0.1,
                    bias_trainable: bool = True, adaptive: bool = False) -> None:
    if len(config_hash) != 32:
        raise ValueError("config_hash must be 32 bytes (sha256 digest)")
    flags = 0
    if mode == "hardware":
        flags |= FLAG_HARDWARE
    if not bias_trainable:
        flags |= FLAG_BIAS_FROZEN
    if adaptive:
        flags |= FLAG_ADAPTIVE
    if state.dtype == np.float32:
        flags |= FLAG_FLOAT32
    header = struct.pack(
        _HEADER, MAGIC, VERSION, state.base.d, state.base.D,
        len(state.e_v), len(state.e_r), seed, flags,
        OPTIMIZER_SGD, lr, momentum, label_smoothing,
        GENERATOR_TAG.encode("ascii").ljust(16, b"\0"), config_hash,
        float(state.bias))
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.e_v, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.e_r, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelState, dict]:
    """Read a checkpoint; returns the rebuilt state and a metadata dict."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointFormatError(f"checkpoint file not found: {path}")
    size = struct.calcsize(_HEADER)
    with open(path, "rb") as fh:
        blob = fh.read(size)
        if len(blob) != size:
            raise CheckpointFormatError(f"{path}: truncated header")
        (magic, version, d, D, n_ent, n_rel, seed, flags, opt, lr, momentum,
         smoothing, prng_tag, config_hash, bias) = struct.unpack(_HEADER, blob)
        if magic != MAGIC:
            raise CheckpointFormatError(
                f"{path}: not a checkpoint file (magic {magic!r}, "
                f"expected {MAGIC!r})")
        if version != VERSION:
            raise CheckpointFormatError(
                f"{path}: unsupported version {version} (expected {VERSION})")
        if flags & FLAG_RETIRED_SIGN:
            raise CheckpointFormatError(
                f"{path}: flag bit 1 marks a model scored as bias plus distance, "
                "a convention this version no longer supports")
        if flags & FLAG_RETIRED_LINEAR:
            raise CheckpointFormatError(
                f"{path}: flag bit 2 marks a model encoded without tanh, "
                "an encoder this version no longer supports")
        unknown = [b for b in range(32) if flags & ~KNOWN_FLAGS & (1 << b)]
        if unknown:
            raise CheckpointFormatError(
                f"{path}: unknown flag bits {', '.join(map(str, unknown))}")
        if opt not in OPTIMIZER_NAMES:
            raise CheckpointFormatError(f"{path}: unknown optimizer code {opt}")
        if not 0 < d * D <= MAX_BASE_CELLS:
            raise CheckpointFormatError(
                f"{path}: base matrix {d} x {D} outside 1..{MAX_BASE_CELLS} cells")
        try:
            prng = prng_tag.rstrip(b"\0").decode("ascii")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{path}: generator tag is not ascii ({exc})") from exc
        # Compare the declared sizes with the file before reading anything.
        ev_size, er_size = n_ent * d * 8, n_rel * d * 8
        left = os.fstat(fh.fileno()).st_size - size
        if left < ev_size + er_size:
            raise CheckpointFormatError(
                f"{path}: truncated parameter arrays (header declares "
                f"{ev_size + er_size} bytes, {left} left)")
        if left > ev_size + er_size:
            raise CheckpointFormatError(f"{path}: trailing bytes after e_r")
        ev_bytes = fh.read(ev_size)
        er_bytes = fh.read(er_size)
    dtype = np.float32 if flags & FLAG_FLOAT32 else np.float64
    e_v = np.frombuffer(ev_bytes, dtype="<f8").reshape(n_ent, d).astype(dtype)
    e_r = np.frombuffer(er_bytes, dtype="<f8").reshape(n_rel, d).astype(dtype)
    state = ModelState(
        base=BaseMatrix.create(d, D, seed), e_v=e_v, e_r=e_r, bias=bias)
    meta = {
        "seed": seed,
        "mode": "hardware" if flags & FLAG_HARDWARE else "reference",
        "optimizer": OPTIMIZER_NAMES[opt],
        "lr": lr,
        "momentum": momentum,
        "label_smoothing": smoothing,
        "bias_trainable": not flags & FLAG_BIAS_FROZEN,
        "adaptive": bool(flags & FLAG_ADAPTIVE),
        "prng": prng,
        "config_hash": config_hash.hex(),
    }
    return state, meta
