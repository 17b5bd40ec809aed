"""Robustness studies: fixed-point quantization and dimension dropping.

Quantization models a signed fixed-point store with ``total_bits`` bits (at
most MAX_TOTAL_BITS), ``frac_bits`` of them fractional: values round to the
nearest representable step (ties to even) and saturate at the format limits

    [-2^(total-frac-1),  2^(total-frac-1) - 2^-frac].

A quantized evaluation quantizes every stored tensor along the scoring path:
embeddings and the projection matrix as the encoder reads them, hypervectors
as the encoder writes them, and the memorized vectors built from those
rounded hypervectors once more when stored.  Sums inside matrix products and
norms stay wide, as datapaths with wide accumulators do.  Quantization is
post-hoc; training always runs at full precision.

Dimension dropping removes hypervector columns before scoring only; encoding
and memorization are untouched.  The low-entropy strategy drops the columns
whose memory values carry the least information, measured as Shannon entropy
of a fixed-bin histogram per column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import NumericError
from .hdc import encode
from .kg import KnowledgeGraph
from .model import ModelState, memorize_edge_list
from .ranking import ScoringView

ENTROPY_BINS = 32
DROP_STRATEGIES = ("entropy", "random")
# The quantizer computes in float64: it rounds any grid finer than 53
# significant bits, and past 1024 bits the format limits overflow.  64 bits
# covers every store the studies model.
MAX_TOTAL_BITS = 64


@dataclass(frozen=True)
class FixedPointSpec:
    """Signed fixed-point format: total_bits wide, frac_bits after the point."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not 2 <= self.total_bits <= MAX_TOTAL_BITS:
            raise ValueError(f"total_bits must lie in [2, {MAX_TOTAL_BITS}]: a sign "
                             "plus one bit, and no wider than the float64 "
                             "quantizer can model")
        if not 0 <= self.frac_bits <= self.total_bits - 1:
            raise ValueError("frac_bits out of range: it must lie in "
                             "[0, total_bits - 1]")

    @property
    def step(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def lo(self) -> float:
        return -(2.0 ** (self.total_bits - self.frac_bits - 1))

    @property
    def hi(self) -> float:
        return 2.0 ** (self.total_bits - self.frac_bits - 1) - self.step


def quantize_fixed(x, spec: FixedPointSpec) -> np.ndarray:
    """Round to the nearest representable value (ties to even), saturating."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise NumericError("cannot quantize NaN values")
    scaled = np.round(x * 2.0 ** spec.frac_bits) * spec.step
    return np.clip(scaled, spec.lo, spec.hi)


def dimension_entropy(M: np.ndarray, bins: int = ENTROPY_BINS) -> np.ndarray:
    """Shannon entropy in bits of each column's value histogram."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError(f"expected a (rows, D) matrix, got shape {M.shape}")
    out = np.zeros(M.shape[1], dtype=np.float64)
    for k in range(M.shape[1]):
        col = M[:, k]
        lo, hi = col.min(), col.max()
        if lo == hi:
            continue  # constant column: zero entropy
        counts, _ = np.histogram(col, bins=bins, range=(lo, hi))
        p = counts[counts > 0] / col.size
        out[k] = float(-(p * np.log2(p)).sum())
    return out


def drop_dims(view: ScoringView, fraction: float, strategy: str = "entropy",
              seed: int = 0) -> tuple[ScoringView, np.ndarray]:
    """Scoring view restricted to the kept columns, plus the kept indices.

    ``fraction`` of the D columns are dropped (floor, at least one kept).
    ``entropy`` drops the lowest-entropy memory columns; ``random`` draws
    from the drop-random stream of the given seed.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    if strategy not in DROP_STRATEGIES:
        raise ValueError(f"strategy must be one of {DROP_STRATEGIES}")
    D = view.M_v.shape[1]
    n_drop = min(int(fraction * D), D - 1)
    if strategy == "entropy":
        entropy = dimension_entropy(view.M_v)
        dropped = np.argsort(entropy, kind="stable")[:n_drop]
    else:
        gen = rng.stream(seed, "drop-random")
        dropped = gen.choice(D, size=n_drop, replace=False)
    keep = np.setdiff1d(np.arange(D), dropped)
    restricted = ScoringView(M_v=view.M_v[:, keep], H_r=view.H_r[:, keep],
                             bias=view.bias)
    return restricted, keep


def quantized_view(state: ModelState, kg: KnowledgeGraph,
                   spec: FixedPointSpec) -> ScoringView:
    """Rebuild the scoring tensors with every stored value quantized."""
    q = lambda a: quantize_fixed(a, spec)
    base_q = replace(state.base, data=q(state.base.data))
    H_v = q(encode(q(state.e_v), base_q))
    H_r = q(encode(q(state.e_r), base_q))
    M_v = memorize_edge_list(kg, H_v, H_r)
    return ScoringView(M_v=q(M_v), H_r=H_r, bias=float(state.bias))
