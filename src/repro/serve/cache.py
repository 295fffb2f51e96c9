"""LRU result cache for the serving daemon.

Keyed by the same ``(experiment, params, scale, seed, quick)`` job key
the admission controller dedups on, it sits *above* the persistent
replay store: the store makes recomputation cheap (waves replay from
disk), the cache makes it free (the rendered result is returned without
touching the worker pool at all).
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``capacity <= 0`` disables caching (every lookup misses); hit/miss
    totals are kept on the instance so the ``status``/``stats`` verbs
    can surface them without a separate ledger.

    Thread-safe: jobs complete on executor threads (``server.py``
    dispatch), so every entry/counter mutation holds an internal lock
    -- an ``OrderedDict`` mid-``move_to_end`` is not safe to mutate
    from a second thread.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            if self.capacity <= 0:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
