"""Run configuration: flat key-value files, flag overrides, stable hashing.

Precedence, lowest to highest: built-in defaults, a packaged preset
(``--preset``), a config file (``--config``), then command-line flags.  The
configuration hash is the sha256 of the canonical ``key=value`` rendering of
every field and is embedded in all artifacts, so outputs can always be traced
to the exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .checkpoint import MAX_BASE_CELLS
from .errors import ConfigError
from .hdc import SIMILARITY_METRICS
from .model import BACKWARD_MODES
from .robustness import DROP_STRATEGIES, FixedPointSpec
from .sim.cache import CACHE_POLICIES

OUTPUT_DIR_ENV = "HDKG_OUTPUT_DIR"


@dataclass
class RunConfig:
    dataset: str = ""
    out_dir: str = ""            # empty: $HDKG_OUTPUT_DIR or the working directory
    checkpoint: str = ""
    seed: int = 0
    d: int = 64
    D: int = 256
    reciprocal: bool = True
    dtype: str = "float64"

    epochs: int = 10
    batch_size: int = 128
    chunk_T: int = 32
    mode: str = "reference"
    # Only "neg" and "tanh" are valid.  Both fields stay because the
    # benchmark harness reads them, and because dropping them would change
    # every config hash.
    score_sign: str = "neg"
    activation: str = "tanh"
    lr: float = 0.05
    momentum: float = 0.0
    adaptive: bool = False
    bias_trainable: bool = True
    label_smoothing: float = 0.1

    split: str = "test"
    filtered: bool = True
    eval_batch: int = 128

    vertex: int = 0
    relation: int = -1           # -1: reconstruct against bare hypervectors
    metric: str = "cosine"
    topk: int = 10

    preset: str = "u50"
    n_engines: int = 0           # 0: take from the cost preset
    cache_slots: int = 0         # 0: take from the cost preset
    cache_policy: str = ""       # empty: take from the cost preset
    sweep_capacities: str = "32,64,128,256"
    sweep_policies: str = "lru,lfu,random"

    fix_bits: int = 8
    frac_bits: int = 4
    drop_frac: float = 0.25
    drop_strategy: str = "entropy"

    def resolved_out_dir(self) -> Path:
        import os
        if self.out_dir:
            return Path(self.out_dir)
        return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, value):
    default = getattr(RunConfig(), key)
    if isinstance(value, str):
        text = value.strip()
        if isinstance(default, bool):
            if text.lower() in ("1", "true", "yes", "on"):
                return True
            if text.lower() in ("0", "false", "no", "off"):
                return False
            raise ConfigError(f"{key}: expected a boolean, got {text!r}")
        try:
            if isinstance(default, int):
                return int(text)
            if isinstance(default, float):
                return float(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        return text
    return value


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def load_preset(name: str) -> dict:
    try:
        # Through the regular ``hdkg`` package: ``presets`` has no
        # __init__.py, and a namespace package does not import from a zip.
        text = (resources.files("hdkg").joinpath("presets").joinpath(f"{name}.cfg")
                .read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"unknown preset {name!r}") from None
    return parse_config_text(text, source=f"preset:{name}")


def build_config(preset: str | None = None, config_path=None,
                 overrides: dict | None = None) -> RunConfig:
    merged: dict = {}
    if preset:
        merged.update(load_preset(preset))
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc})") from None
        merged.update(parse_config_text(text, source=str(path)))
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    cfg = RunConfig()
    for key, value in merged.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, value))
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    """Raise ConfigError on the first invalid field.  Enumerations and the
    fixed-point and base-matrix limits come from the modules enforcing them."""
    def require(cond, message):
        if not cond:
            raise ConfigError(message)

    require(cfg.d > 0 and cfg.D > 0, "d and D must be positive")
    require(cfg.d * cfg.D <= MAX_BASE_CELLS,
            f"base matrix {cfg.d} x {cfg.D} exceeds {MAX_BASE_CELLS} cells")
    require(cfg.seed >= 0, "seed must be non-negative")
    require(cfg.batch_size > 0, "batch_size must be positive")
    require(cfg.chunk_T > 0, "chunk_T must be positive")
    require(cfg.epochs >= 0, "epochs must be non-negative")
    require(cfg.mode in BACKWARD_MODES, f"mode must be {' or '.join(BACKWARD_MODES)}")
    require(cfg.score_sign == "neg", "score_sign must be neg")
    require(cfg.activation == "tanh", "activation must be tanh")
    require(cfg.dtype in ("float64", "float32"), "dtype must be float64 or float32")
    require(0.0 <= cfg.label_smoothing < 1.0, "label_smoothing must be in [0, 1)")
    require(math.isfinite(cfg.lr) and cfg.lr > 0.0, "lr must be positive and finite")
    require(0.0 <= cfg.momentum < 1.0, "momentum must be in [0, 1)")
    require(cfg.split in ("train", "valid", "test"), "split must be train, valid, or test")
    require(cfg.metric in SIMILARITY_METRICS, f"unknown metric {cfg.metric!r}")
    try:
        FixedPointSpec(cfg.fix_bits, cfg.frac_bits)
    except ValueError as exc:
        raise ConfigError(
            f"fix_bits {cfg.fix_bits}, frac_bits {cfg.frac_bits}: {exc}") from None
    require(0.0 <= cfg.drop_frac < 1.0, "drop_frac must be in [0, 1)")
    require(cfg.drop_strategy in DROP_STRATEGIES,
            f"unknown drop strategy {cfg.drop_strategy!r}")
    require(cfg.cache_policy == "" or cfg.cache_policy in CACHE_POLICIES,
            f"unknown cache policy {cfg.cache_policy!r}")
    require(cfg.n_engines >= 0, "n_engines must be non-negative")
    require(cfg.cache_slots >= 0, "cache_slots must be non-negative")
    require(cfg.topk > 0, "topk must be positive")
    require(cfg.eval_batch > 0, "eval_batch must be positive")
    for raw in (cfg.sweep_capacities, cfg.sweep_policies):
        require(bool(raw.strip()), "sweep lists must not be empty")
    for item in cfg.sweep_capacities.split(","):
        try:
            require(int(item) > 0, "sweep capacities must be positive")
        except ValueError:
            raise ConfigError(f"bad sweep capacity {item!r}") from None
    for item in cfg.sweep_policies.split(","):
        require(item.strip() in CACHE_POLICIES, f"bad sweep policy {item!r}")


# File locations say where inputs and outputs live, not what the run
# computes, so they stay out of the run identity.
HASH_EXCLUDED = ("dataset", "out_dir", "checkpoint")


def canonical_text(cfg: RunConfig) -> str:
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        if f.name in HASH_EXCLUDED:
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> bytes:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).digest()
