"""Addressable priority queues.

Step 2 of DagHetPart (``BiggestAssign``) maintains a max-priority queue of
blocks keyed by their memory requirement, with re-insertion of sub-blocks
after repartitioning. The standard library ``heapq`` is a min-heap without
decrease-key; this wrapper provides a max-heap with O(log n) updates and
lazy deletion, which is all the algorithms need.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Hashable, Iterable, Iterator, Optional, Tuple


class AddressableMaxPQ:
    """Max-priority queue with update/remove by key.

    Entries are ``(key, priority)``. Ties are broken by insertion order so
    that runs are deterministic regardless of hash seeds.
    """

    _REMOVED = object()

    def __init__(self, items: Optional[Iterable[Tuple[Hashable, float]]] = None):
        self._heap: list = []
        self._entries: dict = {}
        self._counter = itertools.count()
        if items is not None:
            for key, priority in items:
                self.push(key, priority)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, key: Hashable, priority: float) -> None:
        """Insert ``key`` or update its priority if already present."""
        if key in self._entries:
            self.remove(key)
        entry = [-float(priority), next(self._counter), key]
        self._entries[key] = entry
        heapq.heappush(self._heap, entry)

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; raises ``KeyError`` if absent."""
        entry = self._entries.pop(key)
        entry[2] = self._REMOVED

    def extract_max(self) -> Tuple[Hashable, float]:
        """Pop and return the ``(key, priority)`` with the largest priority."""
        self._purge()
        if not self._heap:
            raise IndexError("extract_max from an empty priority queue")
        neg, _, key = heapq.heappop(self._heap)
        del self._entries[key]
        return key, -neg

    def keys(self) -> Iterator[Hashable]:
        return iter(list(self._entries.keys()))

    def _purge(self) -> None:
        while self._heap and self._heap[0][2] is self._REMOVED:
            heapq.heappop(self._heap)
