"""One-matmul workload evaluation: the advisor's production evaluation engine.

:func:`repro.inum.compiled.compile_cache` digests *one* query's cache into a
dense layout; this module fuses the workload's layouts into a single
*workload arena*:

* one **global access-method column** per distinct ``(table, index key)``
  collected by *any* query (heaps included), so a candidate index set maps to
  one boolean column mask shared by the whole workload,
* the per-query **slot-class rows** stacked into one (total classes x
  columns) cost-matrix pair (full scans / nested-loop probes), each query's
  rows holding +inf outside its own eligible columns -- per-query relevance
  filtering falls out of the eligibility mask for free,
* the per-entry **weight matrices** stacked block-diagonally into one
  (total entries x total classes) pair plus one internal-cost vector, with
  per-query entry/class offsets so per-query minima are segment reductions,
* per-query **maintenance coefficient rows** (base cost plus one coefficient
  vector per index key) mirroring each DML statement's
  :class:`~repro.optimizer.maintenance.MaintenanceProfile` exactly.

Evaluating a whole candidate frontier (every winner set plus one candidate)
is then one masked min, one batched matmul and one segmented min --
:meth:`WorkloadArena.evaluate_frontier` -- instead of ``candidates x
queries`` Python round trips.  The arena is weight-agnostic: callers pass
their execution-frequency weight vector, so one arena serves every weight
sweep over the same caches.

Two backends evaluate the same fused layout: numpy when installed, a
pure-Python fallback otherwise; both stay within 1e-9 of the scalar
:class:`~repro.inum.cost_estimation.InumCostModel`, the reference oracle
(asserted by the property and equivalence tests).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.inum.cache import InumCache
from repro.inum.compiled import IndexSetMemo, _CompiledLayout, compile_cache, numpy_available
from repro.query.ast import Query
from repro.util.errors import PlanningError

try:  # numpy is an optional "[perf]" extra; everything degrades without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None

_INF = float("inf")

#: Recognised values of the ``backend`` argument of :func:`compile_arena`.
ARENA_BACKENDS = ("auto", "numpy", "python")


class _ArenaLayout:
    """Backend-independent fused digest of one workload's compiled caches.

    ``layouts`` optionally supplies already-compiled per-statement layouts
    (a caller's pool, keyed by statement name); statements without one are
    compiled here.  Maintenance rows always come from ``caches``, so a
    pooled layout never carries a stale write profile into the arena.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        caches: Mapping[str, InumCache],
        layouts: Optional[Mapping[str, _CompiledLayout]] = None,
    ) -> None:
        self.query_names: List[str] = []
        self.columns: List[Tuple[str, object]] = []
        self.column_of: Dict[Tuple[str, object], int] = {}
        self.heap_columns: List[int] = []
        self.class_offsets: List[int] = [0]
        self.entry_offsets: List[int] = [0]
        # Stacked class rows (total classes x global columns) and entries.
        self.full_costs: List[List[float]] = []
        self.probe_costs: List[List[float]] = []
        self.internal_costs: List[float] = []
        self.full_weights: List[Dict[int, float]] = []
        self.probe_weights: List[Dict[int, float]] = []
        # Maintenance: per-query base cost plus per-index-key coefficient rows.
        self.maintenance_base: List[float] = []
        self.maintenance_coeffs: Dict[Tuple[str, Tuple[str, ...]], List[float]] = {}

        stacked: List[_CompiledLayout] = []
        for query in queries:
            cache = caches.get(query.name)
            if cache is None:
                raise PlanningError(
                    f"no cache was built for query {query.name!r}; the arena "
                    "needs one compiled layout per workload statement"
                )
            layout = layouts.get(query.name) if layouts is not None else None
            if layout is None:
                layout = compile_cache(cache)
            if not layout.internal_costs:
                raise PlanningError(
                    f"query {query.name!r} has an empty plan cache; the arena "
                    "cannot stack a query with no entries"
                )
            stacked.append(layout)
            self.query_names.append(query.name)

        # Pass 1: the global access-method column table (heaps first seen).
        for layout in stacked:
            for info in layout.methods:
                key = (info.table, info.index_key)
                if key not in self.column_of:
                    self.column_of[key] = len(self.columns)
                    self.columns.append(key)
                    if info.index_key is None:
                        self.heap_columns.append(self.column_of[key])

        # Pass 2: stack class rows, entries and maintenance per query.
        width = len(self.columns)
        for position, layout in enumerate(stacked):
            local_to_global = [
                self.column_of[(info.table, info.index_key)] for info in layout.methods
            ]
            for full_row, probe_row in zip(layout.full_costs, layout.probe_costs):
                global_full = [_INF] * width
                global_probe = [_INF] * width
                for local, column in enumerate(local_to_global):
                    global_full[column] = full_row[local]
                    global_probe[column] = probe_row[local]
                self.full_costs.append(global_full)
                self.probe_costs.append(global_probe)
            class_base = self.class_offsets[position]
            for entry_position in range(len(layout.internal_costs)):
                self.internal_costs.append(layout.internal_costs[entry_position])
                self.full_weights.append({
                    class_base + local: weight
                    for local, weight in layout.full_weights[entry_position].items()
                })
                self.probe_weights.append({
                    class_base + local: weight
                    for local, weight in layout.probe_weights[entry_position].items()
                })
            self.class_offsets.append(len(self.full_costs))
            self.entry_offsets.append(len(self.internal_costs))

            maintenance = caches[self.query_names[position]].maintenance
            self.maintenance_base.append(
                maintenance.base_cost if maintenance is not None else 0.0
            )
            if maintenance is not None:
                for key, cost in maintenance.per_index.items():
                    row = self.maintenance_coeffs.setdefault(
                        key, [0.0] * len(self.query_names)
                    )
                    row[position] = cost

    def no_plan_error(self, position: int) -> PlanningError:
        return PlanningError(
            f"no cached plan of query {self.query_names[position]!r} is "
            "applicable to the given index set"
        )


class WorkloadArena:
    """Common surface of the fused-workload evaluation backends.

    All totals are weighted by the caller-provided ``weights`` vector
    (aligned with :attr:`query_names`; ``None`` means unit weights), so one
    arena serves every execution-frequency sweep over the same caches.
    Per-query costs are per-execution, matching
    :meth:`~repro.advisor.benefit.WorkloadCostModel.per_query_costs`.
    """

    backend: str = "abstract"

    def __init__(self, layout: _ArenaLayout) -> None:
        self._layout = layout
        self._mask_memo = IndexSetMemo(self._build_mask)
        #: Stable identity assigned by the compiling model (for pooling).
        self.arena_id: Optional[str] = None

    # -- shape ------------------------------------------------------------

    @property
    def query_names(self) -> List[str]:
        """Workload statement names, in evaluation (vector) order."""
        return self._layout.query_names

    @property
    def query_count(self) -> int:
        return len(self._layout.query_names)

    @property
    def column_count(self) -> int:
        """Global access-method columns (distinct (table, index key))."""
        return len(self._layout.columns)

    @property
    def class_count(self) -> int:
        return self._layout.class_offsets[-1]

    @property
    def entry_count(self) -> int:
        return self._layout.entry_offsets[-1]

    def column_for(self, index) -> Optional[int]:
        """The candidate's global column (``None`` if never collected)."""
        return self._layout.column_of.get((index.table, index.key))

    def memo_counters(self) -> Tuple[int, int]:
        """Aggregate ``(hits, misses)`` of the arena's index-set memo."""
        return self._mask_memo.hits, self._mask_memo.misses

    # -- maintenance ------------------------------------------------------

    def maintenance_vector(self, indexes: Sequence) -> List[float]:
        """Per-query maintenance costs under ``indexes``.

        Mirrors :meth:`MaintenanceProfile.cost_for` exactly: the base cost
        plus one charge per *occurrence* of a covered index key.
        """
        layout = self._layout
        totals = list(layout.maintenance_base)
        for index in indexes:
            row = layout.maintenance_coeffs.get(index.key)
            if row is None:
                continue
            for position, cost in enumerate(row):
                if cost:
                    totals[position] += cost
        return totals

    # -- evaluation -------------------------------------------------------

    def _build_mask(self, indexes: Sequence):
        raise NotImplementedError

    def per_query_vector(self, indexes: Sequence) -> List[float]:
        """Per-query per-execution costs (read plus maintenance)."""
        raise NotImplementedError

    def evaluate_detail(self, indexes: Sequence) -> Dict[str, float]:
        """Per-query costs under ``indexes``, keyed by statement name."""
        return dict(zip(self._layout.query_names, self.per_query_vector(indexes)))

    def evaluate(self, indexes: Sequence, weights: Optional[Sequence[float]] = None) -> float:
        """Total (weighted) workload cost under ``indexes``."""
        vector = self.per_query_vector(indexes)
        if weights is None:
            return float(sum(vector))
        return float(sum(w * c for w, c in zip(weights, vector)))

    def evaluate_batch(
        self, index_sets: Sequence[Sequence], weights: Optional[Sequence[float]] = None
    ) -> List[float]:
        """Total workload cost of several candidate index sets."""
        raise NotImplementedError

    def frontier_detail(
        self,
        winners: Sequence,
        candidates: Sequence[Optional[object]],
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[float], List[List[float]]]:
        """Totals and per-query rows for ``winners`` plus each candidate.

        The CELF hot path: every candidate set differs from the base by one
        index, so per-class minima are a rank-1 update of the base minima
        instead of a fresh masked reduction.  A ``None`` candidate evaluates
        the bare winner set (used for the baseline row).
        """
        raise NotImplementedError

    def evaluate_frontier(
        self,
        winners: Sequence,
        candidates: Sequence[Optional[object]],
        weights: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Totals of ``winners + [candidate]`` for every candidate."""
        return self.frontier_detail(winners, candidates, weights)[0]

    def query_cost(self, name: str, indexes: Sequence) -> float:
        """One statement's per-execution cost under ``indexes``."""
        raise NotImplementedError

    def _weighted_totals(
        self, rows: Sequence[Sequence[float]], weights: Optional[Sequence[float]]
    ) -> List[float]:
        if weights is None:
            return [float(sum(row)) for row in rows]
        return [float(sum(w * c for w, c in zip(weights, row))) for row in rows]


class PythonWorkloadArena(WorkloadArena):
    """Pure-Python fused evaluation (no numpy required).

    Per class, the minimum runs over the columns that are ever eligible;
    per query, the entry totals are summed in cache order and minimised --
    the same arithmetic as the numpy backend, one loop at a time, so the
    no-numpy install answers identically (within 1e-9).
    """

    backend = "python"

    def __init__(self, layout: _ArenaLayout) -> None:
        super().__init__(layout)
        # Per class, the (global column, full, probe) triples ever eligible.
        self._eligible: List[List[Tuple[int, float, float]]] = []
        for full_row, probe_row in zip(layout.full_costs, layout.probe_costs):
            self._eligible.append([
                (column, full_row[column], probe_row[column])
                for column in range(len(layout.columns))
                if full_row[column] != _INF or probe_row[column] != _INF
            ])
        # Per global column, the classes it can serve (for rank-1 updates).
        self._column_classes: Dict[int, List[Tuple[int, float, float]]] = {}
        for class_position, triples in enumerate(self._eligible):
            for column, full_cost, probe_cost in triples:
                self._column_classes.setdefault(column, []).append(
                    (class_position, full_cost, probe_cost)
                )

    def _build_mask(self, indexes: Sequence) -> frozenset:
        active = set(self._layout.heap_columns)
        for index in indexes:
            column = self._layout.column_of.get((index.table, index.key))
            if column is not None:
                active.add(column)
        return frozenset(active)

    def _class_minima(self, active: frozenset) -> Tuple[List[float], List[float]]:
        full_minima: List[float] = []
        probe_minima: List[float] = []
        for triples in self._eligible:
            best_full = _INF
            best_probe = _INF
            for column, full_cost, probe_cost in triples:
                if column not in active:
                    continue
                if full_cost < best_full:
                    best_full = full_cost
                if probe_cost < best_probe:
                    best_probe = probe_cost
            full_minima.append(best_full)
            probe_minima.append(best_probe)
        return full_minima, probe_minima

    def _read_vector(
        self, full_minima: List[float], probe_minima: List[float]
    ) -> List[float]:
        layout = self._layout
        reads: List[float] = []
        for position in range(len(layout.query_names)):
            start, stop = layout.entry_offsets[position], layout.entry_offsets[position + 1]
            best = _INF
            for entry in range(start, stop):
                cost = layout.internal_costs[entry]
                for class_position, weight in layout.full_weights[entry].items():
                    cost += weight * full_minima[class_position]
                for class_position, weight in layout.probe_weights[entry].items():
                    cost += weight * probe_minima[class_position]
                if cost < best:
                    best = cost
            if best == _INF:
                raise layout.no_plan_error(position)
            reads.append(best)
        return reads

    def per_query_vector(self, indexes: Sequence) -> List[float]:
        full_minima, probe_minima = self._class_minima(self._mask_memo.get(indexes))
        reads = self._read_vector(full_minima, probe_minima)
        maintenance = self.maintenance_vector(indexes)
        return [read + maint for read, maint in zip(reads, maintenance)]

    def evaluate_batch(
        self, index_sets: Sequence[Sequence], weights: Optional[Sequence[float]] = None
    ) -> List[float]:
        return self._weighted_totals(
            [self.per_query_vector(indexes) for indexes in index_sets], weights
        )

    def frontier_detail(
        self,
        winners: Sequence,
        candidates: Sequence[Optional[object]],
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[float], List[List[float]]]:
        base_full, base_probe = self._class_minima(self._mask_memo.get(winners))
        base_maintenance = self.maintenance_vector(winners)
        layout = self._layout
        rows: List[List[float]] = []
        for candidate in candidates:
            full_minima, probe_minima = base_full, base_probe
            if candidate is not None:
                column = layout.column_of.get((candidate.table, candidate.key))
                if column is not None:
                    touched = self._column_classes.get(column, ())
                    if touched:
                        full_minima = list(base_full)
                        probe_minima = list(base_probe)
                        for class_position, full_cost, probe_cost in touched:
                            if full_cost < full_minima[class_position]:
                                full_minima[class_position] = full_cost
                            if probe_cost < probe_minima[class_position]:
                                probe_minima[class_position] = probe_cost
            reads = self._read_vector(full_minima, probe_minima)
            maintenance = base_maintenance
            if candidate is not None:
                coeffs = layout.maintenance_coeffs.get(candidate.key)
                if coeffs is not None:
                    maintenance = [
                        base + coeff for base, coeff in zip(base_maintenance, coeffs)
                    ]
            rows.append([read + maint for read, maint in zip(reads, maintenance)])
        return self._weighted_totals(rows, weights), rows

    def query_cost(self, name: str, indexes: Sequence) -> float:
        layout = self._layout
        position = layout.query_names.index(name)
        full_minima, probe_minima = self._class_minima(self._mask_memo.get(indexes))
        start, stop = layout.entry_offsets[position], layout.entry_offsets[position + 1]
        best = _INF
        for entry in range(start, stop):
            cost = layout.internal_costs[entry]
            for class_position, weight in layout.full_weights[entry].items():
                cost += weight * full_minima[class_position]
            for class_position, weight in layout.probe_weights[entry].items():
                cost += weight * probe_minima[class_position]
            if cost < best:
                best = cost
        if best == _INF:
            raise layout.no_plan_error(position)
        maintenance = layout.maintenance_base[position]
        for index in indexes:
            row = layout.maintenance_coeffs.get(index.key)
            if row is not None:
                maintenance += row[position]
        return best + maintenance


#: Largest (entries x classes) weight matrix the numpy arena stores densely.
#: The matrices are block-diagonal (one block per statement), so their cell
#: count grows with the *square* of the workload: fig-7 is 114 x 73 cells,
#: a 2k-statement uncompressed trace would be gigabytes.  Past this bound
#: the weights are kept as per-entry (class, weight) runs instead, whose
#: size is linear in the workload.
DENSE_WEIGHT_CELLS = 1 << 18


class _WeightRuns:
    """Sparse per-entry weights: (class, weight) pairs grouped by entry.

    ``apply`` computes the same ``minima @ weights.T`` product as the dense
    matrices by gathering each pair's class minimum and summing every
    entry's run with one ``add.reduceat``.
    """

    def __init__(self, rows: Sequence[Mapping[int, float]]) -> None:
        entries, classes, weights = [], [], []
        for entry, row in enumerate(rows):
            for class_position, weight in row.items():
                entries.append(entry)
                classes.append(class_position)
                weights.append(weight)
        self.entry_count = len(rows)
        self.classes = _np.asarray(classes, dtype=_np.intp)
        self.weights = _np.asarray(weights, dtype=_np.float64)
        # Entries appear in order, so each non-empty entry's run starts at
        # its first pair.
        self.entries, self.starts = _np.unique(
            _np.asarray(entries, dtype=_np.intp), return_index=True
        )

    def apply(self, minima):
        """(sets x entries) weighted sums of a (sets x classes) batch."""
        out = _np.zeros((minima.shape[0], self.entry_count), dtype=_np.float64)
        if self.classes.size:
            out[:, self.entries] = _np.add.reduceat(
                minima[:, self.classes] * self.weights, self.starts, axis=1
            )
        return out


class NumpyWorkloadArena(WorkloadArena):
    """Vectorized fused evaluation: one masked min, one matmul, one segment min.

    Workloads whose weight matrices would exceed :data:`DENSE_WEIGHT_CELLS`
    replace the matmuls with :class:`_WeightRuns` gathers (same sums, other
    rounding order -- within 1e-9), so memory stays linear in the workload.
    """

    backend = "numpy"

    def __init__(self, layout: _ArenaLayout) -> None:
        if _np is None:
            raise PlanningError(
                "the arena numpy backend was requested but numpy is not "
                "installed (pip install 'pinum-repro[perf]')"
            )
        super().__init__(layout)
        class_count = layout.class_offsets[-1]
        entry_count = layout.entry_offsets[-1]
        width = len(layout.columns)
        self._full = _np.asarray(layout.full_costs, dtype=_np.float64).reshape(
            class_count, width
        )
        self._probe = _np.asarray(layout.probe_costs, dtype=_np.float64).reshape(
            class_count, width
        )
        self._internal = _np.asarray(layout.internal_costs, dtype=_np.float64)
        if entry_count * class_count <= DENSE_WEIGHT_CELLS:
            full_weight = self._dense_weights(layout.full_weights, class_count)
            probe_weight = self._dense_weights(layout.probe_weights, class_count)
            needs_full = (full_weight > 0.0).astype(_np.float64)
            needs_probe = (probe_weight > 0.0).astype(_np.float64)
            self._full_sums = lambda minima: minima @ full_weight.T
            self._probe_sums = lambda minima: minima @ probe_weight.T
            self._full_needs = lambda missing: missing @ needs_full.T
            self._probe_needs = lambda missing: missing @ needs_probe.T
        else:
            # Weights are never negative, so missing x weight > 0 exactly
            # where the dense ``needs`` product (weight > 0) is.
            full_runs = _WeightRuns(layout.full_weights)
            probe_runs = _WeightRuns(layout.probe_weights)
            self._full_sums = self._full_needs = full_runs.apply
            self._probe_sums = self._probe_needs = probe_runs.apply
        self._base_mask = _np.zeros(len(layout.columns), dtype=bool)
        self._base_mask[layout.heap_columns] = True
        self._entry_starts = _np.asarray(layout.entry_offsets[:-1], dtype=_np.intp)
        self._maintenance_base = _np.asarray(layout.maintenance_base, dtype=_np.float64)
        self._coeff_rows = {
            key: _np.asarray(row, dtype=_np.float64)
            for key, row in layout.maintenance_coeffs.items()
        }

    # -- internals --------------------------------------------------------

    @staticmethod
    def _dense_weights(rows: Sequence[Mapping[int, float]], class_count: int):
        matrix = _np.zeros((len(rows), class_count), dtype=_np.float64)
        for position, row in enumerate(rows):
            for class_position, weight in row.items():
                matrix[position, class_position] = weight
        return matrix

    def _build_mask(self, indexes: Sequence):
        mask = self._base_mask.copy()
        for index in indexes:
            column = self._layout.column_of.get((index.table, index.key))
            if column is not None:
                mask[column] = True
        mask.setflags(write=False)
        return mask

    def _class_minima(self, mask):
        masked_full = _np.where(mask[None, :], self._full, _np.inf)
        masked_probe = _np.where(mask[None, :], self._probe, _np.inf)
        return masked_full.min(axis=1), masked_probe.min(axis=1)

    def _read_rows(self, full_minima, probe_minima):
        """Per-query read costs for a (sets x classes) minima batch."""
        missing_full = _np.isinf(full_minima)
        missing_probe = _np.isinf(probe_minima)
        infeasible = (
            self._full_needs(missing_full.astype(_np.float64))
            + self._probe_needs(missing_probe.astype(_np.float64))
        ) > 0.0
        costs = (
            self._internal[None, :]
            + self._full_sums(_np.where(missing_full, 0.0, full_minima))
            + self._probe_sums(_np.where(missing_probe, 0.0, probe_minima))
        )
        costs[infeasible] = _np.inf
        reads = _np.minimum.reduceat(costs, self._entry_starts, axis=1)
        return reads

    def _check_feasible(self, reads) -> None:
        if _np.isinf(reads).any():
            position = int(_np.argwhere(_np.isinf(reads))[0][-1])
            raise self._layout.no_plan_error(position)

    def _maintenance_array(self, indexes: Sequence):
        totals = self._maintenance_base
        copied = False
        for index in indexes:
            row = self._coeff_rows.get(index.key)
            if row is None:
                continue
            if not copied:
                totals = totals.copy()
                copied = True
            totals += row
        return totals

    # -- public surface ---------------------------------------------------

    def per_query_vector(self, indexes: Sequence) -> List[float]:
        full_minima, probe_minima = self._class_minima(self._mask_memo.get(indexes))
        reads = self._read_rows(full_minima[None, :], probe_minima[None, :])
        self._check_feasible(reads)
        return (reads[0] + self._maintenance_array(indexes)).tolist()

    def evaluate(self, indexes: Sequence, weights: Optional[Sequence[float]] = None) -> float:
        vector = self.per_query_vector(indexes)
        if weights is None:
            return float(sum(vector))
        return float(sum(w * c for w, c in zip(weights, vector)))

    def evaluate_batch(
        self, index_sets: Sequence[Sequence], weights: Optional[Sequence[float]] = None
    ) -> List[float]:
        if not index_sets:
            return []
        masks = _np.stack([self._mask_memo.get(indexes) for indexes in index_sets])
        masked_full = _np.where(masks[:, None, :], self._full[None, :, :], _np.inf)
        masked_probe = _np.where(masks[:, None, :], self._probe[None, :, :], _np.inf)
        reads = self._read_rows(masked_full.min(axis=2), masked_probe.min(axis=2))
        self._check_feasible(reads)
        rows = [
            reads[i] + self._maintenance_array(indexes)
            for i, indexes in enumerate(index_sets)
        ]
        return self._weighted_totals(rows, weights)

    def frontier_detail(
        self,
        winners: Sequence,
        candidates: Sequence[Optional[object]],
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[float], List[List[float]]]:
        base_full, base_probe = self._class_minima(self._mask_memo.get(winners))
        count = len(candidates)
        columns = _np.full(count, -1, dtype=_np.intp)
        for position, candidate in enumerate(candidates):
            if candidate is None:
                continue
            column = self._layout.column_of.get((candidate.table, candidate.key))
            if column is not None:
                columns[position] = column
        # Rank-1 update: each candidate set is the base plus one column, so
        # its class minima are min(base, that column) -- no 3-axis tensor.
        full_minima = _np.repeat(base_full[None, :], count, axis=0)
        probe_minima = _np.repeat(base_probe[None, :], count, axis=0)
        real = columns >= 0
        if real.any():
            picked = columns[real]
            full_minima[real] = _np.minimum(base_full[None, :], self._full[:, picked].T)
            probe_minima[real] = _np.minimum(base_probe[None, :], self._probe[:, picked].T)
        reads = self._read_rows(full_minima, probe_minima)
        self._check_feasible(reads)
        base_maintenance = self._maintenance_array(winners)
        rows = reads + base_maintenance[None, :]
        for position, candidate in enumerate(candidates):
            if candidate is None:
                continue
            coeffs = self._coeff_rows.get(candidate.key)
            if coeffs is not None:
                rows[position] += coeffs
        if weights is None:
            totals = rows.sum(axis=1)
        else:
            totals = rows @ _np.asarray(weights, dtype=_np.float64)
        return totals.tolist(), rows

    def query_cost(self, name: str, indexes: Sequence) -> float:
        layout = self._layout
        position = layout.query_names.index(name)
        full_minima, probe_minima = self._class_minima(self._mask_memo.get(indexes))
        reads = self._read_rows(full_minima[None, :], probe_minima[None, :])
        read = float(reads[0, position])
        if read == _INF:
            raise layout.no_plan_error(position)
        maintenance = layout.maintenance_base[position]
        for index in indexes:
            row = layout.maintenance_coeffs.get(index.key)
            if row is not None:
                maintenance += row[position]
        return read + maintenance


def compile_arena(
    queries: Sequence[Query],
    caches: Mapping[str, InumCache],
    backend: str = "auto",
    layouts: Optional[Mapping[str, _CompiledLayout]] = None,
) -> WorkloadArena:
    """Fuse the workload's caches into one arena.

    ``backend="auto"`` selects numpy when installed and the pure-Python
    fallback otherwise.  ``layouts`` stacks pooled per-statement layouts
    instead of recompiling them (see :class:`_ArenaLayout`).
    """
    if backend not in ARENA_BACKENDS:
        raise PlanningError(
            f"unknown arena backend {backend!r} (expected one of {ARENA_BACKENDS})"
        )
    layout = _ArenaLayout(queries, caches, layouts)
    if backend == "auto":
        backend = "numpy" if numpy_available() else "python"
    if backend == "numpy":
        return NumpyWorkloadArena(layout)
    return PythonWorkloadArena(layout)


def arena_fingerprint(
    query_names: Sequence[str], cache_ids: Mapping[str, str], backend: str
) -> str:
    """A stable identity for arena pooling.

    Ordered (statement, cache id) pairs -- the vector order matters -- plus
    the backend.  Cache ids already fold in the maintenance-profile digest
    (the session appends ``|maint:<digest>``), so a weight sweep reuses the
    arena while a write-fraction change rebuilds it.
    """
    hasher = hashlib.sha256()
    hasher.update(backend.encode("utf-8"))
    for name in query_names:
        hasher.update(b"\x00")
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\x01")
        hasher.update(str(cache_ids.get(name, name)).encode("utf-8"))
    return "arena:" + hasher.hexdigest()[:16]
