"""Per-node memory cache: a byte-budgeted LRU keyed by virtual time.

One :class:`NodeCache` per invoker node (``cached-cos``) or store VM
(``vm``) holds recently produced/consumed intermediate objects
(shuffle partitions, DAG node results) in memory.  Two properties matter
beyond plain LRU:

* **Recency is virtual time, not wall order.**  Touches are stamped with
  the kernel clock and eviction picks the minimum ``(last_used, key)``.
  Two entries touched at the same virtual instant order by key, so the
  victim choice — and therefore the whole cache timeline — is a pure
  function of the simulated history, independent of how the OS interleaves
  the real threads that model concurrent functions.  This is what lets
  same-seed cached runs export byte-identical traces.
* **Entries are tagged with the container that produced (or fetched)
  them.**  Warm-container memory is where the data physically lives, so
  when a container is reclaimed — idle-TTL expiry, pressure eviction, or a
  chaos-injected crash — its entries vanish with it and readers fall back
  to a peer or to COS.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

__all__ = ["NodeCache"]


class _Entry:
    __slots__ = ("blob", "container_id", "last_used")

    def __init__(self, blob: bytes, container_id: Optional[str], now: float) -> None:
        self.blob = blob
        self.container_id = container_id
        self.last_used = now


class NodeCache:
    """Byte-budgeted LRU cache hosted by one invoker node."""

    def __init__(
        self,
        node_id: int,
        budget_bytes: int,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        self.node_id = node_id
        self.budget_bytes = int(budget_bytes)
        self._clock = clock or (lambda: 0.0)
        self._entries: dict[str, _Entry] = {}
        self._used = 0
        self._lock = threading.Lock()
        # counters (observability)
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    # -- introspection -----------------------------------------------------
    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def peek_size(self, key: str) -> Optional[int]:
        """Size of a resident entry without touching its recency."""
        with self._lock:
            entry = self._entries.get(key)
            return len(entry.blob) if entry is not None else None

    def container_bytes(self, container_id: str) -> int:
        """Bytes currently held on behalf of one container."""
        with self._lock:
            return sum(
                len(e.blob)
                for e in self._entries.values()
                if e.container_id == container_id
            )

    # -- reads -------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """The cached blob, refreshing its recency; ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            entry.last_used = self._clock()
            self.hits += 1
            return entry.blob

    # -- writes ------------------------------------------------------------
    def put(
        self, key: str, blob: bytes, container_id: Optional[str]
    ) -> list[tuple[str, int]]:
        """Insert (or refresh) an entry, evicting LRU victims for room.

        Returns the ``(key, size)`` pairs evicted to make space — the
        caller deregisters them from its directory and emits their trace
        points.  An object larger than the whole budget is not
        cached at all (returning ``[]``): correctness never depends on
        residency, so the write-through copy in COS simply serves alone.
        """
        size = len(blob)
        with self._lock:
            existing = self._entries.pop(key, None)
            if existing is not None:
                self._used -= len(existing.blob)
            if size > self.budget_bytes:
                return []
            evicted: list[tuple[str, int]] = []
            while self._used + size > self.budget_bytes:
                victim = min(
                    self._entries.items(),
                    key=lambda item: (item[1].last_used, item[0]),
                )[0]
                victim_entry = self._entries.pop(victim)
                self._used -= len(victim_entry.blob)
                self.evictions += 1
                evicted.append((victim, len(victim_entry.blob)))
            self._entries[key] = _Entry(blob, container_id, self._clock())
            self._used += size
            self.insertions += 1
            return evicted

    # -- removal -----------------------------------------------------------
    def drop(self, key: str) -> Optional[int]:
        """Remove one entry; returns its size, or ``None`` if absent."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._used -= len(entry.blob)
            return len(entry.blob)

    def drop_container(self, container_id: str) -> list[tuple[str, int]]:
        """Remove every entry the given container held (reclaim/crash)."""
        with self._lock:
            doomed = sorted(
                key
                for key, entry in self._entries.items()
                if entry.container_id == container_id
            )
            dropped = []
            for key in doomed:
                entry = self._entries.pop(key)
                self._used -= len(entry.blob)
                dropped.append((key, len(entry.blob)))
            return dropped
