"""Density-aware vertex scheduling and the encoded-vertex registry.

Vertices stream in id order into per-degree buckets.  A bucket that reaches
the engine count N_c flushes as one batch, so the memorization engines run
load-balanced over members of identical degree.  Whatever remains at the end
of the stream flushes in descending-degree order, packed up to N_c per batch;
only these tail batches may mix degrees.

The registry maps vertex id to its device address.  A vertex found in the
registry travels as an 8-byte address and is not re-encoded; an unknown one
travels as its d-float embedding row and gets an address from a bump
allocator when the device stores its freshly encoded hypervector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Registry:
    """Vertex id -> device address, addresses handed out by a bump allocator."""

    def __init__(self):
        self.addresses: dict[int, int] = {}
        self.next_address = 0

    def __contains__(self, vid) -> bool:
        return vid in self.addresses

    def __len__(self) -> int:
        return len(self.addresses)

    def allocate(self, vid: int) -> int:
        if vid in self.addresses:
            return self.addresses[vid]
        addr = self.next_address
        self.addresses[vid] = addr
        self.next_address += 1
        return addr


@dataclass
class ScheduleBatch:
    """One offload batch.  Homogeneous in degree unless it is a tail batch."""

    members: list[int]
    degree: int                      # max member degree
    tail: bool
    encode: list[bool]               # per member, at issue time


def schedule_epoch(degrees: np.ndarray, n_engines: int,
                   registry: Registry) -> list[ScheduleBatch]:
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
    # Flush leftovers, largest degrees first, packing up to n_engines per batch.
    pending: list[int] = []
    pending_deg = 0

    def flush():
        nonlocal pending, pending_deg
        if pending:
            batches.append(ScheduleBatch(
                members=pending, degree=pending_deg, tail=True,
                encode=[v not in registry for v in pending]))
            pending = []
            pending_deg = 0

    for deg in sorted(buckets, reverse=True):
        for vid in buckets[deg]:
            pending.append(vid)
            pending_deg = max(pending_deg, deg)
            if len(pending) == n_engines:
                flush()
    flush()
    return batches
