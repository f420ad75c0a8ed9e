"""Cache-based query cost estimation (the INUM cost model).

Once a cache is built, the cost of the query under an arbitrary atomic
configuration is computed without the optimizer: every cached plan whose
interesting-order combination is covered by the configuration is re-costed as
``internal cost + sum of the configuration's access costs`` (nested-loop
inners use the per-probe cost times the outer cardinality), and the cheapest
applicable plan wins.  This is the "simple numerical calculation" of
Section II that replaces whole optimizer invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.inum.atomic_config import AtomicConfiguration
from repro.inum.cache import CacheEntry, InumCache
from repro.inum.compiled import IndexSetMemo
from repro.util.errors import PlanningError


@dataclass
class CostEstimate:
    """The result of one cache-based cost estimation."""

    cost: float
    entry: CacheEntry
    access_breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def uses_nestloop(self) -> bool:
        """Whether the winning cached plan contains a nested-loop join."""
        return self.entry.uses_nestloop


class InumCostModel:
    """Estimate query costs for atomic configurations from a plan cache."""

    def __init__(self, cache: InumCache) -> None:
        cache.validate()
        self._cache = cache
        self._by_table_memo: IndexSetMemo = IndexSetMemo(self._group_by_table)
        self._maintenance_memo: IndexSetMemo = IndexSetMemo(
            cache.maintenance.cost_for
            if cache.maintenance is not None
            else (lambda indexes: 0.0)
        )

    @property
    def cache(self) -> InumCache:
        """The underlying plan cache."""
        return self._cache

    # -- estimation ------------------------------------------------------------

    def estimate(self, configuration: AtomicConfiguration) -> float:
        """Estimated optimal cost of the query under ``configuration``."""
        return self.estimate_detail(configuration).cost

    def estimate_empty(self) -> float:
        """Cost of the query with no indexes at all (the advisor's baseline)."""
        return self.estimate(AtomicConfiguration([]))

    def estimate_detail(self, configuration: AtomicConfiguration) -> CostEstimate:
        """Estimate and also report which cached plan won and its breakdown."""
        best: Optional[CostEstimate] = None
        for entry in self._cache.entries:
            estimate = self._cost_with_entry(entry, configuration)
            if estimate is None:
                continue
            if best is None or estimate.cost < best.cost:
                best = estimate
        if best is None:
            raise PlanningError(
                f"no cached plan of query {self._cache.query.name!r} is applicable to "
                f"{configuration!r}; the cache is missing its empty-order entry"
            )
        return best

    def estimate_with_indexes(self, indexes: "List") -> float:
        """Estimated cost when an arbitrary index set (not necessarily atomic) exists.

        The advisor evaluates configurations that may hold several indexes on
        the same table.  For every cached plan and every leaf slot the model
        simply picks the cheapest collected access method among the heap and
        the given indexes on that table that covers the slot's required
        order -- the per-table minimum is what an optimizer would pick too,
        so no atomic enumeration is needed.

        Caches carrying a maintenance profile (DML statements) additionally
        charge the index set's write cost on top of the read estimate,
        mirroring the workload arena.
        """
        return self.estimate_with_indexes_detail(indexes)[0]

    def estimate_with_indexes_detail(self, indexes: "List") -> Tuple[float, CacheEntry]:
        """Like :meth:`estimate_with_indexes`, also reporting the winning entry."""
        best_cost: Optional[float] = None
        best_entry: Optional[CacheEntry] = None
        by_table: Dict[str, List] = self._by_table_memo.get(indexes)
        for entry in self._cache.entries:
            cost = entry.internal_cost
            feasible = True
            for slot in entry.slots:
                candidates = []
                if slot.required_order is None and self._cache.access_costs.has_heap(slot.table):
                    candidates.append(self._cache.access_costs.heap(slot.table))
                for index in by_table.get(slot.table, []):
                    info = self._cache.access_costs.for_index(index)
                    if info is not None and info.covers_order(slot.required_order):
                        candidates.append(info)
                if slot.parameterized:
                    candidates = [c for c in candidates if c.probe_cost is not None]
                if not candidates:
                    feasible = False
                    break
                if slot.parameterized:
                    cost += slot.multiplier * min(c.probe_cost for c in candidates)
                else:
                    cost += min(c.full_cost for c in candidates)
            if feasible and (best_cost is None or cost < best_cost):
                best_cost = cost
                best_entry = entry
        if best_cost is None or best_entry is None:
            raise PlanningError(
                f"no cached plan of query {self._cache.query.name!r} is applicable to the "
                "given index set"
            )
        if self._cache.maintenance is not None:
            maintenance = self._maintenance_memo.get(indexes)
            if maintenance:
                best_cost += maintenance
        return best_cost, best_entry

    def best_configuration(
        self, configurations: List[AtomicConfiguration]
    ) -> AtomicConfiguration:
        """The cheapest configuration among ``configurations`` (ties keep the first)."""
        if not configurations:
            raise PlanningError("cannot rank an empty list of configurations")
        return min(configurations, key=self.estimate)

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _group_by_table(indexes: "List") -> Dict[str, List]:
        """Group an index set by table (memoized per index-set signature)."""
        by_table: Dict[str, List] = {}
        for index in indexes:
            by_table.setdefault(index.table, []).append(index)
        return by_table

    def _cost_with_entry(
        self, entry: CacheEntry, configuration: AtomicConfiguration
    ) -> Optional[CostEstimate]:
        """Re-cost one cached plan under ``configuration`` (None = not applicable)."""
        if not configuration.covers(entry.ioc):
            return None
        total = entry.internal_cost
        breakdown: Dict[str, float] = {}
        for slot in entry.slots:
            index = configuration.index_for(slot.table)
            info = self._cache.access_costs.best_access(slot.table, index, slot.required_order)
            if info is None:
                return None
            if slot.parameterized:
                if info.probe_cost is None:
                    return None
                contribution = slot.multiplier * info.probe_cost
            else:
                contribution = info.full_cost
            breakdown[slot.table] = contribution
            total += contribution
        return CostEstimate(cost=total, entry=entry, access_breakdown=breakdown)
