"""Workload cost models: the advisor's benefit oracle.

The greedy search asks one question over and over: *what does the workload
cost if this index set exists?*  Three interchangeable answers are provided:

* :class:`OptimizerWorkloadCostModel` -- ask the optimizer a what-if question
  per query per evaluation (the pre-INUM approach, slowest but exact),
* :class:`CacheBackedWorkloadCostModel` with ``mode="inum"`` -- arithmetic
  over classically-built INUM caches (the baseline), and
* :class:`CacheBackedWorkloadCostModel` with ``mode="pinum"`` -- the paper's
  configuration: same arithmetic, caches built 5-10x faster.

The cache-backed model has two evaluation engines: the fused
:class:`~repro.inum.arena.WorkloadArena` (the default; numpy-vectorized when
installed, pure Python otherwise), which answers a whole workload or a whole
candidate frontier in one call, and the scalar per-slot walk of
:class:`~repro.inum.cost_estimation.InumCostModel`, the reference oracle.
:class:`IncrementalWorkloadEvaluator` gives the selectors one surface over
both (and over the optimizer-backed model): frontier batches under the
arena, per-query delta evaluation via the model's table -> queries relevance
map otherwise.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.registry import ENGINES as ENGINE_REGISTRY
from repro.api.registry import EngineSpec
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.inum.arena import WorkloadArena, arena_fingerprint, compile_arena
from repro.inum.cache import InumCache
from repro.inum.compiled import _CompiledLayout, compile_cache, numpy_available
from repro.inum.cost_estimation import InumCostModel
from repro.inum.serialization import CacheStore
from repro.inum.workload_builder import WorkloadBuilderOptions, WorkloadCacheBuilder
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache, WhatIfOptimizer
from repro.pinum.cost_model import PinumCostModel
from repro.query.ast import Query
from repro.util.errors import AdvisorError
from repro.util.fingerprint import configuration_signature, query_fingerprint

def validate_statement_weight(name: str, value: object, label: str = "statement weight") -> float:
    """Coerce one execution-frequency weight, raising on anything unusable.

    The single validation path for weights arriving from options, request
    payloads or serve clients: numeric, finite, non-negative.
    """
    try:
        weight = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise AdvisorError(
            f"{label} for {name!r} must be a number, got {value!r}"
        ) from None
    if not math.isfinite(weight) or weight < 0.0:
        raise AdvisorError(
            f"{label} for {name!r} must be finite and >= 0, got {weight}"
        )
    return weight


#: Engine specs registered (lazily) in :data:`repro.api.registry.ENGINES`.
#: The arena needs no availability gate: :func:`compile_arena` picks the
#: numpy buffers when installed and the pure-Python layout otherwise.
ARENA_ENGINE = EngineSpec("arena", fused=True)
SCALAR_ENGINE = EngineSpec("scalar", fused=False)


class WorkloadCostModel(abc.ABC):
    """Estimates the total workload cost under a hypothetical index set.

    ``weights`` assigns each statement an execution frequency (default 1.0
    per statement); workload totals are frequency-weighted sums while
    per-statement costs stay per-execution.  Mixed read/write workloads use
    this to express their read/write ratio: the net benefit the greedy
    search optimizes is ``sum(w_q * cost_q)``, where a DML statement's cost
    already includes the index set's maintenance charge.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not queries:
            raise AdvisorError("the workload must contain at least one query")
        self.queries = list(queries)
        self.weights: Dict[str, float] = {query.name: 1.0 for query in self.queries}
        if weights:
            for name, weight in weights.items():
                if name not in self.weights:
                    continue  # weights may outlive removed statements
                self.weights[name] = validate_statement_weight(name, weight)
        self._queries_by_table: Dict[str, List[Query]] = {}
        for query in self.queries:
            for table in query.tables:
                self._queries_by_table.setdefault(table, []).append(query)
        #: Per-query evaluations answered so far (for selection-phase reports).
        self.query_evaluations = 0

    def weight_of(self, name: str) -> float:
        """The statement's execution-frequency weight (1.0 by default)."""
        return self.weights.get(name, 1.0)

    @abc.abstractmethod
    def _query_cost(self, query: Query, indexes: Sequence[Index]) -> float:
        """Cost of one query when ``indexes`` (and nothing else) exist."""

    def query_cost(self, query: Query, indexes: Sequence[Index]) -> float:
        """Cost of one query when ``indexes`` (and nothing else) exist."""
        self.query_evaluations += 1
        return self._query_cost(query, indexes)

    def queries_touching(self, table: str) -> List[Query]:
        """The workload queries that read ``table``.

        An index on any other table cannot change their cost, which is what
        delta evaluation exploits.
        """
        return self._queries_by_table.get(table, [])

    def workload_cost(self, indexes: Sequence[Index]) -> float:
        """Total weighted cost of the workload under ``indexes``."""
        return sum(
            self.weights[query.name] * self.query_cost(query, indexes)
            for query in self.queries
        )

    def per_query_costs(self, indexes: Sequence[Index]) -> Dict[str, float]:
        """Per-execution costs under ``indexes`` keyed by statement name."""
        return {query.name: self.query_cost(query, indexes) for query in self.queries}

    def weighted_total(self, per_query_costs: Mapping[str, float]) -> float:
        """The workload total implied by :meth:`per_query_costs` output."""
        return sum(
            self.weights[query.name] * per_query_costs[query.name]
            for query in self.queries
        )

    @property
    def preparation_optimizer_calls(self) -> int:
        """Optimizer calls spent preparing the model (0 for the raw optimizer)."""
        return 0

    @property
    def preparation_seconds(self) -> float:
        """Wall-clock seconds spent preparing the model."""
        return 0.0


class IncrementalWorkloadEvaluator:
    """Delta evaluation of workload costs for the greedy search.

    The exhaustive loop recomputes every query's cost for every candidate in
    every iteration, although a candidate index on table ``T`` can only move
    the queries that read ``T``.  This evaluator keeps the current per-query
    costs and answers "what if this candidate joined the winners?" by
    re-evaluating just the relevant queries; totals are still summed over all
    queries in workload order, so they are bit-identical to a full
    :meth:`~WorkloadCostModel.workload_cost` call.

    Under the fused ``"arena"`` engine the evaluator delegates to the
    model's :class:`~repro.inum.arena.WorkloadArena` instead: per-query
    costs come back as one vector, and :meth:`frontier` scores a whole
    candidate frontier (winners plus each candidate) in one batched call --
    the selectors use it to replace their per-candidate loops.
    """

    def __init__(self, model: WorkloadCostModel, indexes: Sequence[Index] = ()) -> None:
        self._model = model
        self._weights = model.weights
        self._arena: Optional[WorkloadArena] = getattr(model, "arena", None)
        if self._arena is not None:
            model.query_evaluations += len(model.queries)
            self._costs = dict(
                zip(self._arena.query_names, self._arena.per_query_vector(list(indexes)))
            )
        else:
            self._costs = {
                query.name: model.query_cost(query, list(indexes))
                for query in model.queries
            }
        self._pending: Dict[tuple, Dict[str, float]] = {}
        self._pending_rows: Dict[tuple, Sequence[float]] = {}

    @property
    def supports_frontier(self) -> bool:
        """Whether :meth:`frontier` answers in one batched arena call."""
        return self._arena is not None

    def frontier(
        self, winners: Sequence[Index], candidates: Sequence[Index]
    ) -> Optional[List[float]]:
        """Weighted workload costs of ``winners + [c]`` for every candidate.

        One batched arena evaluation (``None`` without an arena); the
        per-query rows are remembered so committing any of the candidates
        is free.
        """
        arena = self._arena
        if arena is None:
            return None
        weights = [self._weights[name] for name in arena.query_names]
        totals, rows = arena.frontier_detail(winners, candidates, weights)
        self._model.query_evaluations += len(arena.query_names) * len(candidates)
        self._pending_rows = {
            candidate.key: row for candidate, row in zip(candidates, rows)
        }
        return totals

    @property
    def total(self) -> float:
        """Current weighted workload cost (matches ``workload_cost`` bit-for-bit)."""
        return sum(self._weights[name] * cost for name, cost in self._costs.items())

    def per_query_costs(self) -> Dict[str, float]:
        """A copy of the current per-query (per-execution) costs."""
        return dict(self._costs)

    def cost_with(self, winners: Sequence[Index], candidate: Index) -> float:
        """Weighted workload cost of ``winners + [candidate]``.

        Only queries touching ``candidate.table`` are re-evaluated (for a
        mixed workload that includes the DML statements charged the
        candidate's maintenance); the new per-query costs are remembered so
        a following :meth:`commit` of the same candidate is free.
        """
        if self._arena is not None:
            totals = self.frontier(winners, [candidate])
            assert totals is not None
            return totals[0]
        affected = self._model.queries_touching(candidate.table)
        if not affected:
            return self.total
        extended = list(winners) + [candidate]
        fresh = {query.name: self._model.query_cost(query, extended) for query in affected}
        self._pending[candidate.key] = fresh
        return sum(
            self._weights[query.name] * fresh.get(query.name, self._costs[query.name])
            for query in self._model.queries
        )

    def commit(self, winners: Sequence[Index], candidate: Index) -> None:
        """Make ``candidate`` (last element of ``winners``) permanent."""
        if self._arena is not None:
            row = self._pending_rows.get(candidate.key)
            if row is None:
                self._model.query_evaluations += len(self._arena.query_names)
                row = self._arena.per_query_vector(list(winners))
            self._costs = dict(
                zip(self._arena.query_names, (float(cost) for cost in row))
            )
            self._pending_rows = {}
            self._pending.clear()
            return
        fresh = self._pending.get(candidate.key)
        if fresh is None:
            affected = self._model.queries_touching(candidate.table)
            fresh = {query.name: self._model.query_cost(query, list(winners)) for query in affected}
        self._costs.update(fresh)
        self._pending.clear()


class OptimizerWorkloadCostModel(WorkloadCostModel):
    """Benefit oracle that calls the optimizer for every evaluation.

    The greedy search asks the same (query, configuration) questions over
    and over -- every iteration re-evaluates every remaining candidate, and
    adding an index on one table leaves the relevant configuration of every
    other query unchanged -- so repeated questions are memoized by default.
    Only the scalar cost is retained (not whole plan trees, which a long
    greedy run over a large candidate set would accumulate without bound).

    ``whatif`` optionally substitutes a shared what-if layer (e.g. a
    session's :class:`~repro.optimizer.whatif.WhatIfCallCache`), and
    ``cost_memo`` a shared scalar-cost dictionary, so the memoized answers
    outlive any single model instance.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        queries: Sequence[Query],
        memoize: bool = True,
        whatif: Optional[Union[WhatIfOptimizer, WhatIfCallCache]] = None,
        cost_memo: Optional[Dict[tuple, float]] = None,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        super().__init__(queries, weights=weights)
        self._whatif = whatif if whatif is not None else WhatIfOptimizer(optimizer)
        self._memoize = memoize
        self._cost_memo: Dict[tuple, float] = cost_memo if cost_memo is not None else {}

    def _query_cost(self, query: Query, indexes: Sequence[Index]) -> float:
        relevant = [index for index in indexes if index.table in query.tables]
        if not self._memoize:
            return self._whatif.statement_cost(query, relevant, exclusive=True)
        key = (query_fingerprint(query), configuration_signature(relevant))
        cost = self._cost_memo.get(key)
        if cost is None:
            cost = self._whatif.statement_cost(query, relevant, exclusive=True)
            self._cost_memo[key] = cost
        return cost


class CacheBackedWorkloadCostModel(WorkloadCostModel):
    """Benefit oracle answering from per-query INUM/PINUM caches.

    ``mode`` selects the cache builder: ``"pinum"`` (default, the paper's
    configuration) or ``"inum"`` (the baseline).  The caches are built once
    for the given candidate set -- by a
    :class:`~repro.inum.workload_builder.WorkloadCacheBuilder`, so workload-
    scale machinery applies: ``jobs`` fans the builds across a process pool,
    ``store`` reuses caches persisted by earlier runs, and identical-SQL
    queries are built once.  Every subsequent evaluation is pure arithmetic,
    performed by the ``engine`` of choice: ``"arena"`` (the default, the
    fused :class:`~repro.inum.arena.WorkloadArena`) or ``"scalar"`` (the
    per-slot reference walk); see :data:`repro.api.registry.ENGINES`.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        queries: Sequence[Query],
        candidate_indexes: Sequence[Index],
        mode: str = "pinum",
        jobs: int = 1,
        store: Optional[CacheStore] = None,
        catalog_factory: Optional[Callable[[], Catalog]] = None,
        engine: str = "arena",
        call_cache: Optional[WhatIfCallCache] = None,
        per_query_candidates: Optional[Dict[str, List[Index]]] = None,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        super().__init__(queries, weights=weights)
        if mode not in ("pinum", "inum"):
            raise AdvisorError(f"unknown cache mode {mode!r} (expected 'pinum' or 'inum')")
        builder = WorkloadCacheBuilder(
            options=WorkloadBuilderOptions(builder=mode, jobs=jobs),
            catalog_factory=catalog_factory,
            store=store,
            optimizer=optimizer,
            call_cache=call_cache,
        )
        outcome = builder.build(
            self.queries, list(candidate_indexes), per_query_candidates=per_query_candidates
        )
        self.build_report = outcome.report
        self._attach_caches(
            outcome.caches,
            mode,
            engine,
            outcome.report.optimizer_calls,
            outcome.report.wall_seconds,
        )

    @classmethod
    def from_caches(
        cls,
        queries: Sequence[Query],
        caches: Dict[str, InumCache],
        mode: str = "pinum",
        engine: str = "arena",
        preparation_optimizer_calls: int = 0,
        preparation_seconds: float = 0.0,
        layout_cache: Optional[Dict[str, _CompiledLayout]] = None,
        cache_ids: Optional[Dict[str, str]] = None,
        weights: Optional[Mapping[str, float]] = None,
        arena_cache: Optional[Dict[str, WorkloadArena]] = None,
    ) -> "CacheBackedWorkloadCostModel":
        """A model over already-built caches (the warm session path).

        No builder runs: the caches were constructed (or loaded) elsewhere,
        e.g. by a :class:`~repro.api.session.TuningSession`'s incremental
        pool.  ``layout_cache``/``cache_ids`` let the caller share compiled
        per-cache layouts across model instances, keyed by a stable cache
        identity, so an arena over a new workload restacks warm layouts
        instead of recompiling them; ``arena_cache`` pools whole arenas by
        workload fingerprint.
        """
        model = cls.__new__(cls)
        WorkloadCostModel.__init__(model, queries, weights=weights)
        model.build_report = None
        model._attach_caches(
            dict(caches),
            mode,
            engine,
            preparation_optimizer_calls,
            preparation_seconds,
            layout_cache=layout_cache,
            cache_ids=cache_ids,
            arena_cache=arena_cache,
        )
        return model

    def _attach_caches(
        self,
        caches: Dict[str, InumCache],
        mode: str,
        engine: str,
        preparation_calls: int,
        preparation_seconds: float,
        layout_cache: Optional[Dict[str, _CompiledLayout]] = None,
        cache_ids: Optional[Dict[str, str]] = None,
        arena_cache: Optional[Dict[str, WorkloadArena]] = None,
    ) -> None:
        if mode not in ("pinum", "inum"):
            raise AdvisorError(f"unknown cache mode {mode!r} (expected 'pinum' or 'inum')")
        self.mode = mode
        self._caches = caches
        self._models: Dict[str, InumCostModel] = {}
        for name, cache in caches.items():
            self._models[name] = PinumCostModel(cache) if mode == "pinum" else InumCostModel(cache)
        self._layout_cache = layout_cache
        self._cache_ids = cache_ids or {}
        self._arena: Optional[WorkloadArena] = None
        self._arena_cache = arena_cache
        self.select_engine(engine)
        self._calls = preparation_calls
        self._seconds = preparation_seconds

    def select_engine(self, engine: str) -> None:
        """Switch the evaluation engine without rebuilding caches.

        Engine names resolve through :data:`repro.api.registry.ENGINES`, so
        plugins appear here automatically.  The fused ``"arena"`` engine
        compiles (or adopts from ``arena_cache``) one workload-wide arena;
        ``"scalar"`` answers through the per-query reference walk.
        """
        spec: EngineSpec = ENGINE_REGISTRY.get(engine)
        self._arena = self._compile_arena() if spec.fused else None

    def _pooled_layouts(self) -> Optional[Dict[str, _CompiledLayout]]:
        """Per-statement layouts from the attached pool, compiling misses into
        it (``None`` without a pool: the arena then compiles its own)."""
        if self._layout_cache is None:
            return None
        layouts: Dict[str, _CompiledLayout] = {}
        for name, cache in self._caches.items():
            key = self._cache_ids.get(name, name)
            layout = self._layout_cache.get(key)
            if layout is None:
                layout = compile_cache(cache)
                self._layout_cache[key] = layout
            layouts[name] = layout
        return layouts

    def _compile_arena(self) -> WorkloadArena:
        backend = "numpy" if numpy_available() else "python"
        arena_id = arena_fingerprint(
            [query.name for query in self.queries], self._cache_ids, backend
        )
        arena = self._arena_cache.get(arena_id) if self._arena_cache is not None else None
        if arena is None:
            arena = compile_arena(
                self.queries, self._caches, backend=backend, layouts=self._pooled_layouts()
            )
            arena.arena_id = arena_id
            if self._arena_cache is not None:
                self._arena_cache[arena_id] = arena
                # Shared maps are first-promotion-wins: adopt the winner.
                arena = self._arena_cache.get(arena_id, arena)
        return arena

    @property
    def arena(self) -> Optional[WorkloadArena]:
        """The fused workload arena (``None`` unless ``engine="arena"``)."""
        return self._arena

    @property
    def engine_backend(self) -> str:
        """The active evaluation engine: "arena" or "scalar"."""
        return "arena" if self._arena is not None else "scalar"

    def workload_cost(self, indexes: Sequence[Index]) -> float:
        """Total weighted cost of the workload under ``indexes``."""
        if self._arena is not None:
            self.query_evaluations += len(self.queries)
            return self._arena.evaluate(
                indexes, [self.weights[query.name] for query in self.queries]
            )
        return super().workload_cost(indexes)

    def per_query_costs(self, indexes: Sequence[Index]) -> Dict[str, float]:
        """Per-execution costs under ``indexes`` keyed by statement name."""
        if self._arena is not None:
            self.query_evaluations += len(self.queries)
            return self._arena.evaluate_detail(indexes)
        return super().per_query_costs(indexes)

    def memo_counters(self) -> Tuple[int, int]:
        """``(hits, misses)`` of the arena's index-set memo (0s under scalar)."""
        if self._arena is None:
            return 0, 0
        return self._arena.memo_counters()

    @property
    def caches(self) -> Dict[str, InumCache]:
        """The per-statement plan caches this model answers from (by name).

        The ILP formulation compiles these (maintenance profiles included)
        into its objective and constraint matrices.
        """
        return self._caches

    def _query_cost(self, query: Query, indexes: Sequence[Index]) -> float:
        if self._arena is not None:
            return self._arena.query_cost(query.name, indexes)
        relevant = [index for index in indexes if index.table in query.tables]
        return self.model_for(query).estimate_with_indexes(relevant)

    def model_for(self, query: Query) -> InumCostModel:
        """The per-query scalar cost model (exposed for experiments)."""
        model = self._models.get(query.name)
        if model is None:
            raise AdvisorError(f"no cache was built for query {query.name!r}")
        return model

    @property
    def preparation_optimizer_calls(self) -> int:
        return self._calls

    @property
    def preparation_seconds(self) -> float:
        return self._seconds


# -- cost-model plugin surface ------------------------------------------------------


@dataclass
class CostModelRequest:
    """Everything a registered cost-model factory may need to build a model.

    Factories registered in :data:`repro.api.registry.COST_MODELS` receive
    one of these.  Cache-backed factories (``uses_plan_caches = True``) get
    ``caches`` pre-warmed by the session (with ``layout_cache``/``cache_ids``
    for compiled-layout reuse); cold paths build from ``optimizer`` and
    ``candidates`` themselves, optionally through ``store``/``call_cache``.
    """

    optimizer: Optimizer
    queries: Sequence[Query]
    candidates: Sequence[Index] = ()
    engine: str = "arena"
    jobs: int = 1
    store: Optional[CacheStore] = None
    catalog_factory: Optional[Callable[[], Catalog]] = None
    call_cache: Optional[WhatIfCallCache] = None
    per_query_candidates: Optional[Dict[str, List[Index]]] = None
    caches: Optional[Dict[str, InumCache]] = None
    preparation_optimizer_calls: int = 0
    preparation_seconds: float = 0.0
    #: Shared pool of compiled per-cache layouts, keyed by cache id.
    layout_cache: Optional[Dict[str, _CompiledLayout]] = None
    cache_ids: Dict[str, str] = field(default_factory=dict)
    cost_memo: Optional[Dict[tuple, float]] = None
    #: Per-statement execution-frequency weights (missing names default 1.0).
    weights: Optional[Mapping[str, float]] = None
    #: Shared pool of fused workload arenas, keyed by arena fingerprint.
    arena_cache: Optional[Dict[str, WorkloadArena]] = None


def _build_cache_backed(request: CostModelRequest, mode: str) -> WorkloadCostModel:
    if request.caches is not None:
        return CacheBackedWorkloadCostModel.from_caches(
            request.queries,
            request.caches,
            mode=mode,
            engine=request.engine,
            preparation_optimizer_calls=request.preparation_optimizer_calls,
            preparation_seconds=request.preparation_seconds,
            layout_cache=request.layout_cache,
            cache_ids=request.cache_ids,
            weights=request.weights,
            arena_cache=request.arena_cache,
        )
    return CacheBackedWorkloadCostModel(
        request.optimizer,
        request.queries,
        request.candidates,
        mode=mode,
        jobs=request.jobs,
        store=request.store,
        catalog_factory=request.catalog_factory,
        engine=request.engine,
        call_cache=request.call_cache,
        per_query_candidates=request.per_query_candidates,
        weights=request.weights,
    )


def build_pinum_cost_model(request: CostModelRequest) -> WorkloadCostModel:
    """The paper's configuration: arithmetic over PINUM-built caches."""
    return _build_cache_backed(request, "pinum")


build_pinum_cost_model.uses_plan_caches = True
build_pinum_cost_model.cache_builder = "pinum"


def build_inum_cost_model(request: CostModelRequest) -> WorkloadCostModel:
    """The baseline: the same arithmetic over classically-built INUM caches."""
    return _build_cache_backed(request, "inum")


build_inum_cost_model.uses_plan_caches = True
build_inum_cost_model.cache_builder = "inum"


def build_optimizer_cost_model(request: CostModelRequest) -> WorkloadCostModel:
    """The pre-INUM oracle: one (memoized) optimizer probe per evaluation."""
    return OptimizerWorkloadCostModel(
        request.optimizer,
        request.queries,
        whatif=request.call_cache,
        cost_memo=request.cost_memo,
        weights=request.weights,
    )


build_optimizer_cost_model.uses_plan_caches = False
