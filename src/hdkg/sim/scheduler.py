"""Density-aware vertex scheduling against the encoded-vertex registry.

Vertices stream in id order into per-degree buckets.  A bucket that reaches
the engine count N_c flushes as one batch, so the memorization engines run
load-balanced over members of identical degree.  Whatever remains at the end
of the stream flushes in descending-degree order, packed up to N_c per batch;
only these tail batches may mix degrees.

The registry is the set of vertex ids whose hypervectors the device already
stores.  A registered vertex travels as an 8-byte address and is not
re-encoded; an unknown one travels as its d-float embedding row and is
registered once the device stores its freshly encoded hypervector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ScheduleBatch:
    """One offload batch.  Homogeneous in degree unless it is a tail batch."""

    members: list[int]
    degree: int                      # max member degree
    tail: bool
    encode: list[bool]               # per member, at issue time


def schedule_epoch(degrees: np.ndarray, n_engines: int,
                   registry: set[int]) -> list[ScheduleBatch]:
    """Batch every vertex exactly once for one epoch of memorization."""
    if n_engines < 1:
        raise ValueError("n_engines must be at least 1")
    degrees = np.asarray(degrees)
    buckets: dict[int, list[int]] = {}
    batches: list[ScheduleBatch] = []
    for vid in range(len(degrees)):
        deg = int(degrees[vid])
        bucket = buckets.setdefault(deg, [])
        bucket.append(vid)
        if len(bucket) == n_engines:
            batches.append(ScheduleBatch(
                members=bucket.copy(), degree=deg, tail=False,
                encode=[v not in registry for v in bucket]))
            bucket.clear()
    # Pack the leftovers, largest degrees first, so each tail batch's first
    # member has its largest degree.
    leftovers = [vid for deg in sorted(buckets, reverse=True) for vid in buckets[deg]]
    for start in range(0, len(leftovers), n_engines):
        members = leftovers[start:start + n_engines]
        batches.append(ScheduleBatch(
            members=members, degree=int(degrees[members[0]]), tail=True,
            encode=[v not in registry for v in members]))
    return batches
