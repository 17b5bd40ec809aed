"""Vertex hypervector cache with LRU, LFU, and Random replacement.

Capacity counts hypervector-sized slots (the on-chip UltraRAM budget).
Relation hypervectors never pass through here; the device keeps all of them
resident.  LFU evicts the least-frequently-used entry, breaking ties by
least-recent touch.  It keeps one insertion-ordered bucket of vertices per
access count (Shah, Mitra & Matani, 2010): a hit moves the vertex to the end
of the next bucket, and the victim is the first entry of the lowest bucket.
Random eviction draws from the ``random-policy`` stream.

:meth:`Cache.access` answers hit or miss, and the cache counts only its
evictions.  Hit and miss totals are the caller's: the replay keeps them in
:class:`hdkg.sim.cost.ReplayStats`.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from .. import rng

CACHE_POLICIES = ("lru", "lfu", "random")


class Cache:
    def __init__(self, capacity: int, policy: str = "lru", seed: int = 0):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if policy not in CACHE_POLICIES:
            raise ValueError(f"policy must be one of {CACHE_POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.evictions = 0
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._freq: dict[int, int] = {}               # lfu: vid -> access count
        # lfu: access count -> its vertices, least recently touched first
        self._buckets: defaultdict[int, OrderedDict[int, None]] = defaultdict(OrderedDict)
        self._min_freq = 0                            # lfu: lowest non-empty bucket
        self._slots: list[int] = []                   # random policy: resident vids
        self._pos: dict[int, int] = {}                # vid -> index into _slots
        self._gen = rng.stream(seed, "random-policy")
        # access(vid) touches one vertex and returns True on a hit; a miss
        # inserts it, evicting first if the cache is full.
        self.access = {"lru": self._access_lru, "lfu": self._access_lfu,
                       "random": self._access_random}[policy]

    @property
    def resident(self) -> set[int]:
        if self.policy == "lru":
            return set(self._lru)
        if self.policy == "lfu":
            return set(self._freq)
        return set(self._slots)

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
        freq = self._freq.get(vid, 0)
        if freq:
            bucket = self._buckets[freq]
            del bucket[vid]
            if not bucket:
                del self._buckets[freq]
                if self._min_freq == freq:
                    self._min_freq += 1
        elif self.capacity == 0:
            return False
        else:
            if len(self._freq) >= self.capacity:
                bucket = self._buckets[self._min_freq]
                del self._freq[bucket.popitem(last=False)[0]]
                if not bucket:
                    del self._buckets[self._min_freq]
                self.evictions += 1
            self._min_freq = 1
        self._freq[vid] = freq + 1
        self._buckets[freq + 1][vid] = None
        return freq > 0

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
