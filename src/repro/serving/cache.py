"""Estimate cache: canonical query keys plus a thread-safe LRU store.

Online workloads repeat themselves (the paper's In-Q workloads model exactly
that locality), so the serving layer memoises estimates.  The cache key is
*canonical*: every predicate is translated into the inclusive code interval
it selects on its column (the same translation Duet's zero-out mask uses),
intervals on the same column are intersected, and the per-column intervals
are sorted.  Two queries therefore share a key whenever they select the same
tuples — regardless of predicate order or of operator spelling (on an
integer-coded domain ``x > 3`` and ``x >= 4`` select the same interval).
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Hashable

from ..core.encoding import IntervalWalk
from ..data.table import Table
from ..workload.query import Query

__all__ = ["QueryKeyEncoder", "EstimateCache"]


class QueryKeyEncoder:
    """Maps queries onto canonical, hashable cache keys for one table.

    ``namespace`` scopes every key to the serving identity producing the
    estimates — the service passes ``(dataset, model_version, data_version)``
    — so entries cached under one model can never be served after a hot-swap
    to another (the swap also flushes, but the key guards against any path
    that misses the flush, e.g. an external shared cache).
    """

    def __init__(self, table: Table, namespace: tuple | None = None) -> None:
        self.table = table
        self.namespace = namespace
        self._walk = IntervalWalk(table)

    def key(self, query: Query) -> Hashable:
        """Canonical key: packed ``(column, low, high)`` code intervals.

        Built on the cached :class:`~repro.core.encoding.IntervalWalk` that
        also feeds the batch translate, with the interval semantics of
        :meth:`Query.code_intervals` (the ground-truth executor's): ANDed
        predicates on a column intersect, whole-domain ones drop out, and an
        empty interval reads ``(1, 0)``.  The intervals are listed by column
        and packed as fixed-width integers (all in ``[0, NDV]``), so two
        queries share a key exactly when they select the same tuples (and,
        with a namespace attached, are answered by the same model over the
        same data version).
        """
        narrowed: dict[int, tuple[int, int]] = {}
        for column, low, high, _, _ in self._walk.bounds(query):
            previous = narrowed.get(column)
            if previous is not None:
                low, high = max(previous[0], low), min(previous[1], high)
            narrowed[column] = (low, high)
        flat: list[int] = []
        for column in sorted(narrowed):
            low, high = narrowed[column]
            flat += (column, low, high) if low <= high else (column, 1, 0)
        packed = array("i", flat).tobytes()
        if self.namespace is None:
            return packed
        return (self.namespace, packed)


class EstimateCache:
    """A thread-safe LRU cache of ``key -> estimate``.

    ``capacity == 0`` disables the cache (every lookup misses, inserts are
    dropped), which lets the service keep one code path for both modes.
    Hit/miss accounting lives in :class:`~repro.serving.ServiceStats`, the
    single authoritative counter set the service reports from.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> float | None:
        """Cached estimate for ``key``, or ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            return None

    def put(self, key: Hashable, value: float) -> None:
        """Insert (or refresh) an estimate, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = float(value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
