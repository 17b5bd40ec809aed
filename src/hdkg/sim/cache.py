"""Vertex hypervector cache with LRU, LFU, and Random replacement.

Capacity counts hypervector-sized slots (the on-chip UltraRAM budget).
Relation hypervectors never pass through here; the device keeps all of them
resident.  LFU evicts the least-frequently-used entry, breaking ties by
least-recent touch and then by lowest vertex id.  Its heap is built when the
cache first fills, keeps stale entries until they surface, and is rebuilt
from the current entries once it outgrows LFU_HEAP_SLACK times the capacity.
Random eviction draws from the ``random-policy`` stream.

:meth:`Cache.access` answers hit or miss, and the cache counts only its
evictions.  Hit and miss totals are the caller's: the replay keeps them in
:class:`hdkg.sim.cost.ReplayStats`.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

from .. import rng

CACHE_POLICIES = ("lru", "lfu", "random")
LFU_HEAP_SLACK = 2     # LFU heap entries allowed per slot before a rebuild


class Cache:
    def __init__(self, capacity: int, policy: str = "lru", seed: int = 0):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if policy not in CACHE_POLICIES:
            raise ValueError(f"policy must be one of {CACHE_POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.evictions = 0
        self._clock = 0
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._meta: dict[int, tuple[int, int, int]] = {}  # vid -> its current heap entry
        self._heap: list[tuple[int, int, int]] = []       # (freq, last_touch, vid)
        self._slots: list[int] = []                   # random policy: resident vids
        self._pos: dict[int, int] = {}                # vid -> index into _slots
        self._gen = rng.stream(seed, "random-policy")

    @property
    def resident(self) -> set[int]:
        if self.policy == "lru":
            return set(self._lru)
        if self.policy == "lfu":
            return set(self._meta)
        return set(self._slots)

    def access(self, vid: int) -> bool:
        """Touch one vertex; returns True on hit.  Misses insert (evicting if full)."""
        if self.policy == "lru":
            return self._access_lru(vid)
        if self.policy == "lfu":
            return self._access_lfu(vid)
        return self._access_random(vid)

    def _access_lru(self, vid):
        if vid in self._lru:
            self._lru.move_to_end(vid)
            return True
        if self.capacity == 0:
            return False
        if len(self._lru) >= self.capacity:
            self._lru.popitem(last=False)
            self.evictions += 1
        self._lru[vid] = None
        return False

    def _access_lfu(self, vid):
        self._clock += 1
        current = self._meta.get(vid)
        if current is not None:
            entry = (current[0] + 1, self._clock, vid)
        else:
            if self.capacity == 0:
                return False
            if len(self._meta) >= self.capacity:
                # Stale heap entries are skipped until one is a vertex's
                # current entry.
                while True:
                    victim = heapq.heappop(self._heap)
                    if self._meta.get(victim[2]) is victim:
                        del self._meta[victim[2]]
                        self.evictions += 1
                        break
            entry = (1, self._clock, vid)
        self._meta[vid] = entry
        # Nothing is evicted before the cache fills, so the heap is built
        # then, and rebuilt whenever stale entries pile up.  Entries are
        # totally ordered and only current ones are evicted, so dropping the
        # stale ones keeps the eviction order.
        if len(self._meta) >= self.capacity:
            heapq.heappush(self._heap, entry)
            if not len(self._meta) <= len(self._heap) <= LFU_HEAP_SLACK * self.capacity:
                self._heap = list(self._meta.values())
                heapq.heapify(self._heap)
        return current is not None

    def _access_random(self, vid):
        if vid in self._pos:
            return True
        if self.capacity == 0:
            return False
        if len(self._slots) >= self.capacity:
            idx = int(self._gen.integers(len(self._slots)))
            victim = self._slots[idx]
            last = self._slots.pop()
            if last != victim:
                self._slots[idx] = last
                self._pos[last] = idx
            del self._pos[victim]
            self.evictions += 1
        self._pos[vid] = len(self._slots)
        self._slots.append(vid)
        return False
