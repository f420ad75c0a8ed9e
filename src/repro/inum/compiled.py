"""Compiled layouts of INUM/PINUM plan caches.

The scalar :class:`~repro.inum.cost_estimation.InumCostModel` walks every
cached plan entry and every leaf slot in Python for every evaluation.  The
advisor's greedy search performs that walk thousands of times, so this module
compiles a cache once into a dense numeric layout:

* one *column* per collected access method (the table's heap or a candidate
  index), holding its full-scan and per-probe costs,
* one *slot class* per distinct ``(table, required_order)`` a slot can ask
  for, with an eligibility-masked (classes x methods) cost matrix -- the
  per-class minimum over the active columns is the cost every slot of that
  class contributes, and
* one row per cache entry with its internal cost and per-class slot weights
  (slot counts for full scans, summed multipliers for nested-loop probes),
  so an entry's total is ``internal + W_full @ class_full + W_probe @
  class_probe`` and the query's cost is the minimum over feasible entries.

:func:`compile_cache` is the one producer of these layouts.  They are
evaluated only after being stacked into a workload arena
(:mod:`repro.inum.arena`), which answers a whole workload -- or a whole
candidate frontier -- in one masked min, one matmul and one segment min; the
ILP formulation reads the same coefficients.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.inum.access_costs import AccessCostInfo
from repro.inum.cache import InumCache
from repro.util.fingerprint import configuration_signature

try:  # numpy is an optional "[perf]" extra; everything degrades without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None

_INF = float("inf")

_T = TypeVar("_T")


def numpy_available() -> bool:
    """Whether the vectorized numpy backend can be used in this process."""
    return _np is not None


class IndexSetMemo:
    """Memoize a per-index-set derived structure, keyed by its signature.

    The greedy search re-evaluates the same index sets (winners plus one
    candidate) against every query, so structures derived from an index set
    -- the per-table grouping of the scalar model, the column mask of the
    workload arena -- are worth caching.  Keys are
    :func:`~repro.util.fingerprint.configuration_signature`, so equal sets in
    different order (or containing distinct-but-equal ``Index`` objects) hit
    the same entry.  When the memo reaches ``max_entries`` the least recently
    used entry is evicted, so long runs keep their hot winner-set entries
    instead of periodically losing everything.  ``hits``/``misses`` count the
    lookups answered from and past the memo (surfaced per selection run in
    :class:`~repro.advisor.greedy.SelectionStatistics`).
    """

    def __init__(self, build: Callable[[Sequence], _T], max_entries: int = 8192) -> None:
        self._build = build
        self._max_entries = max_entries
        self._memo: "OrderedDict[tuple, _T]" = OrderedDict()
        #: Lookups answered from the memo.
        self.hits = 0
        #: Lookups that had to build (including rebuilds after eviction).
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, indexes: Sequence) -> _T:
        """The derived structure for ``indexes`` (built on first sight)."""
        key = configuration_signature(indexes)
        try:
            value = self._memo[key]
        except KeyError:
            pass
        else:
            self.hits += 1
            self._memo.move_to_end(key)
            return value
        self.misses += 1
        value = self._build(indexes)
        while len(self._memo) >= self._max_entries:
            self._memo.popitem(last=False)
        self._memo[key] = value
        return value


class _CompiledLayout:
    """Backend-independent dense digest of one :class:`InumCache`."""

    def __init__(self, cache: InumCache) -> None:
        cache.validate()
        self.cache = cache
        table = cache.access_costs

        # Columns: every collected access method, heaps first per table.
        self.methods: List[AccessCostInfo] = []
        self.column_of: Dict[Tuple[str, object], int] = {}
        for table_name in table.tables():
            for info in table.entries_for_table(table_name):
                self.column_of[(info.table, info.index_key)] = len(self.methods)
                self.methods.append(info)
        self.heap_columns: List[int] = [
            position for position, info in enumerate(self.methods) if info.index_key is None
        ]

        # Slot classes and per-entry weights.
        self.classes: List[Tuple[str, Optional[str]]] = []
        class_of: Dict[Tuple[str, Optional[str]], int] = {}
        self.internal_costs: List[float] = []
        self.full_weights: List[Dict[int, float]] = []
        self.probe_weights: List[Dict[int, float]] = []
        for entry in cache.entries:
            full_weight: Dict[int, float] = {}
            probe_weight: Dict[int, float] = {}
            for slot in entry.slots:
                key = (slot.table, slot.required_order)
                position = class_of.setdefault(key, len(self.classes))
                if position == len(self.classes):
                    self.classes.append(key)
                if slot.parameterized:
                    probe_weight[position] = probe_weight.get(position, 0.0) + slot.multiplier
                else:
                    full_weight[position] = full_weight.get(position, 0.0) + 1.0
            self.internal_costs.append(entry.internal_cost)
            self.full_weights.append(full_weight)
            self.probe_weights.append(probe_weight)

        # Eligibility-masked (classes x methods) cost matrices.  A method is
        # eligible for a class exactly when the scalar model would consider
        # it: same table and the required order covered.  The scalar walk
        # adds the heap only for order-free slots (regardless of any
        # provided_order its record might carry), so heaps never satisfy an
        # ordered class here either.  Infeasible cells are +inf so minima
        # skip them.
        self.full_costs: List[List[float]] = []
        self.probe_costs: List[List[float]] = []
        for table_name, order in self.classes:
            full_row = [_INF] * len(self.methods)
            probe_row = [_INF] * len(self.methods)
            for position, info in enumerate(self.methods):
                if info.table != table_name:
                    continue
                if info.index_key is None:
                    if order is not None:
                        continue
                elif not info.covers_order(order):
                    continue
                full_row[position] = info.full_cost
                if info.probe_cost is not None:
                    probe_row[position] = info.probe_cost
            self.full_costs.append(full_row)
            self.probe_costs.append(probe_row)

    def active_columns(self, indexes: Sequence) -> List[int]:
        """Column positions usable under ``indexes`` (heaps are always active).

        Indexes whose access cost was never collected are ignored, exactly as
        the scalar model ignores ``for_index(...) is None``.
        """
        active = list(self.heap_columns)
        seen = set(active)
        for index in indexes:
            position = self.column_of.get((index.table, index.key))
            if position is not None and position not in seen:
                seen.add(position)
                active.append(position)
        return active


def compile_cache(cache: InumCache) -> _CompiledLayout:
    """The dense (entries x slot classes x access methods) digest of ``cache``.

    The single per-cache layout compiler: the workload arena
    (:mod:`repro.inum.arena`) stacks these layouts into one fused tensor
    family, and the ILP formulation (:mod:`repro.advisor.ilp.formulation`)
    compiles the same coefficients into the objective and constraint rows of
    a binary integer program.  Layouts are immutable after construction, so
    callers pool them by cache identity.  The layout validates the cache on
    construction.
    """
    return _CompiledLayout(cache)
