"""Hypervector primitives: kernel encoding and similarity.

Low-dimensional embeddings (rows of length d) are lifted into D-dimensional
hypervectors through a fixed random projection followed by tanh:

    H = tanh(e @ B)

where B is a d x D matrix of i.i.d. standard normal entries drawn once from
the ``base-matrix`` stream and never trained.  This is the one encoder form:
training, evaluation and the quantized studies all call :func:`encode`.
Binding (Hadamard product) and bundling (row sums) happen inside memorization,
in :func:`hdkg.model.aggregate_bind`.  Hypervector matrices are plain float
arrays of shape (rows, D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ShapeError, UndefinedSimilarityError

SIMILARITY_METRICS = ("cosine", "neg_l1", "sign_hamming")


@dataclass(frozen=True)
class BaseMatrix:
    """The fixed d x D random projection used by the encoder."""

    d: int
    D: int
    seed: int
    data: np.ndarray

    @classmethod
    def create(cls, d: int, D: int, seed: int) -> "BaseMatrix":
        if d <= 0 or D <= 0:
            raise ValueError(f"dimensions must be positive, got d={d}, D={D}")
        gen = rng.stream(seed, "base-matrix")
        data = gen.standard_normal((d, D))
        data.setflags(write=False)
        return cls(d=d, D=D, seed=seed, data=data)


def encode(embeddings: np.ndarray, base: BaseMatrix) -> np.ndarray:
    """Lift embedding rows into hypervectors: tanh(e @ B)."""
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2 or embeddings.shape[1] != base.d:
        raise ShapeError(
            f"embeddings must be (rows, {base.d}), got {embeddings.shape}")
    return np.tanh(embeddings @ base.data.astype(embeddings.dtype, copy=False))


def similarity(a: np.ndarray, b: np.ndarray, metric: str = "cosine"):
    """Similarity between hypervectors; higher means more alike.

    ``a`` may be a single vector or a matrix of row vectors, matched against
    vector or matrix ``b`` with broadcasting over rows.  Metrics:

      cosine        a.b / (|a||b|); undefined on zero vectors.
      neg_l1        -sum |a - b|.
      sign_hamming  fraction of dimensions with equal sign.

    One pair of vectors gives a float; otherwise one score per row, which is
    an empty array when there are no rows.
    """
    a, b = np.atleast_2d(np.asarray(a)), np.atleast_2d(np.asarray(b))
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"similarity operands disagree on D: {a.shape} vs {b.shape}")
    if metric == "cosine":
        na = np.linalg.norm(a, axis=-1)
        nb = np.linalg.norm(b, axis=-1)
        if np.any(na == 0.0) or np.any(nb == 0.0):
            raise UndefinedSimilarityError("cosine similarity of a zero vector")
        out = (a * b).sum(axis=-1) / (na * nb)
    elif metric == "neg_l1":
        out = -np.abs(a - b).sum(axis=-1)
    elif metric == "sign_hamming":
        out = (np.sign(a) == np.sign(b)).mean(axis=-1)
    else:
        raise ValueError(f"unknown metric {metric!r}; choose from {SIMILARITY_METRICS}")
    return out if out.size != 1 else out.item()
