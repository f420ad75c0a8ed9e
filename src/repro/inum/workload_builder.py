"""Workload-scale cache construction: build every query's plan cache at once.

The per-query builders (:class:`~repro.inum.cache_builder.InumCacheBuilder`,
:class:`~repro.pinum.cache_builder.PinumCacheBuilder`) answer "how cheaply
can *one* cache be filled?".  A physical-design tool needs caches for a whole
workload, so this module scales the construction out along three axes:

* **memoization** -- every what-if probe is routed through one shared
  :class:`~repro.optimizer.whatif.WhatIfCallCache`, and queries with
  identical SQL (a fixture of real workloads, where the same template
  arrives over and over) are fingerprint-deduplicated and built once,
* **parallelism** -- with ``jobs > 1`` the per-query builds fan out across a
  ``concurrent.futures`` process pool, longest query first so the pool
  drains evenly, and
* **persistence** -- with a :class:`~repro.inum.serialization.CacheStore`
  attached, caches built by a previous run are loaded instead of rebuilt
  (and freshly built ones are saved), making construction a one-time cost
  per (catalog, query, candidate-set) combination.

The result is a :class:`WorkloadBuildResult`: one
:class:`~repro.inum.cache.InumCache` per query plus a
:class:`WorkloadBuildReport` merging the per-query build statistics into the
workload-level accounting the benchmarks and the CLI report.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import CACHE_BUILDERS
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.inum.cache import CacheBuildStatistics, InumCache
from repro.inum.cache_builder import InumBuilderOptions
from repro.inum.dml import build_statement_cache
from repro.inum.serialization import CacheStore, cache_from_dict, cache_to_dict
from repro.obs.instruments import BUILD_QUERIES
from repro.obs.trace import get_tracer
from repro.optimizer.interesting_orders import combination_count
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfCallCache
from repro.pinum.cache_builder import PinumBuilderOptions
from repro.query.ast import DmlStatement, Query
from repro.util.errors import ReproError
from repro.util.fingerprint import query_fingerprint
from repro.util.timing import timed

#: Built-in per-query builders (the authoritative, extensible list is
#: :data:`repro.api.registry.CACHE_BUILDERS`).
BUILDERS = ("pinum", "inum")


@dataclass
class WorkloadBuilderOptions:
    """Knobs of a workload-scale build.

    ``builder`` selects the per-query builder (``"pinum"`` or ``"inum"``).
    ``jobs`` is the process-pool width; ``1`` builds serially in-process
    (with the benefit of one shared what-if call cache across all queries).
    ``use_call_cache`` toggles the memoizing what-if layer.
    ``dedupe_queries`` builds queries with identical canonical SQL once and
    shares the cache.  ``inum_options``/``pinum_options`` are forwarded to
    the per-query builders.
    """

    builder: str = "pinum"
    jobs: int = 1
    use_call_cache: bool = True
    dedupe_queries: bool = True
    inum_options: Optional[InumBuilderOptions] = None
    pinum_options: Optional[PinumBuilderOptions] = None

    def __post_init__(self) -> None:
        # Names resolve through the CACHE_BUILDERS registry, so external
        # builders registered there are accepted here too; the error lists
        # the registered choices (AdvisorError is a ReproError).
        CACHE_BUILDERS.validate(self.builder)
        if self.jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class QueryBuildOutcome:
    """How one query's cache was obtained."""

    query_name: str
    builder: str
    #: ``"built"`` (fresh optimizer work), ``"store"`` (loaded from the
    #: persistent cache store) or ``"deduplicated"`` (identical SQL to an
    #: earlier query; its cache was shared).
    source: str
    stats: CacheBuildStatistics
    deduped_from: Optional[str] = None


@dataclass
class WorkloadBuildReport:
    """Workload-level merge of the per-query build statistics."""

    builder: str
    jobs: int
    outcomes: List[QueryBuildOutcome] = field(default_factory=list)
    #: Wall-clock seconds of the whole build (parallel time, not CPU time).
    wall_seconds: float = 0.0
    #: Queries rebuilt serially in-process because a pool worker died
    #: before returning them (caches the pool did return are kept).
    serial_fallback_queries: int = 0

    def outcome_for(self, query_name: str) -> Optional[QueryBuildOutcome]:
        """The outcome recorded for ``query_name`` (if any)."""
        for outcome in self.outcomes:
            if outcome.query_name == query_name:
                return outcome
        return None

    def _built(self) -> List[QueryBuildOutcome]:
        return [outcome for outcome in self.outcomes if outcome.source == "built"]

    @property
    def queries_total(self) -> int:
        """Number of queries in the workload."""
        return len(self.outcomes)

    @property
    def queries_built(self) -> int:
        """Queries whose cache was freshly constructed this run."""
        return len(self._built())

    @property
    def queries_from_store(self) -> int:
        """Queries answered from the persistent cache store."""
        return sum(1 for outcome in self.outcomes if outcome.source == "store")

    @property
    def queries_deduplicated(self) -> int:
        """Queries sharing an identical-SQL sibling's cache."""
        return sum(1 for outcome in self.outcomes if outcome.source == "deduplicated")

    @property
    def optimizer_calls(self) -> int:
        """Optimizer calls actually spent this run (fresh builds only)."""
        return sum(outcome.stats.optimizer_calls_total for outcome in self._built())

    @property
    def build_seconds(self) -> float:
        """Summed per-query build seconds (CPU-ish; exceeds wall when parallel)."""
        return sum(outcome.stats.seconds_total for outcome in self._built())

    @property
    def whatif_cache_hits(self) -> int:
        """What-if probes answered from the memoization layer this run."""
        return sum(outcome.stats.whatif_cache_hits for outcome in self._built())

    @property
    def whatif_hit_rate(self) -> float:
        """Hit fraction of the memoizing what-if layer across fresh builds."""
        requests = sum(outcome.stats.whatif_requests for outcome in self._built())
        if not requests:
            return 0.0
        return self.whatif_cache_hits / requests


@dataclass
class WorkloadBuildResult:
    """Caches for every workload query plus the build report."""

    caches: Dict[str, InumCache]
    report: WorkloadBuildReport

    def cache_for(self, query: Query) -> InumCache:
        """The cache built for ``query`` (by name)."""
        try:
            return self.caches[query.name]
        except KeyError:
            raise ReproError(f"no cache was built for query {query.name!r}") from None


class WorkloadCacheBuilder:
    """Builds the plan caches of an entire workload.

    ``catalog`` is enough for serial builds; parallel builds (``jobs > 1``)
    additionally need a *picklable* ``catalog_factory`` (a module-level
    function or :func:`functools.partial` over one, e.g.
    ``partial(repro.workloads.builtin_catalog_factory, "star", 7)``) because
    each worker process reconstructs the catalog and its optimizer once.
    ``store`` attaches a persistent :class:`CacheStore` consulted before and
    updated after every build.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        options: Optional[WorkloadBuilderOptions] = None,
        *,
        catalog_factory: Optional[Callable[[], Catalog]] = None,
        store: Optional[CacheStore] = None,
        optimizer: Optional[Optimizer] = None,
        call_cache: Optional[WhatIfCallCache] = None,
    ) -> None:
        if catalog is None and catalog_factory is None and optimizer is None:
            raise ReproError("WorkloadCacheBuilder needs a catalog or a catalog_factory")
        if catalog is None:
            self._catalog = optimizer.catalog if optimizer is not None else catalog_factory()
        else:
            self._catalog = catalog
        self._catalog_factory = catalog_factory
        #: Serial builds reuse this optimizer when given (so session options
        #: and call counters stay with the caller); workers always build
        #: their own from the factory.
        self._optimizer = optimizer
        #: Serial builds route their what-if probes through this cache when
        #: given (e.g. a session-lifetime cache warmed by earlier builds)
        #: instead of a fresh per-build one.  Ignored by parallel builds,
        #: whose workers keep per-process caches.
        self._call_cache = call_cache
        self.options = options or WorkloadBuilderOptions()
        self.store = store

    @property
    def catalog(self) -> Catalog:
        """The catalog the caches are built against."""
        return self._catalog

    def build(
        self,
        queries: Sequence[Query],
        candidate_indexes: Optional[Sequence[Index]] = None,
        *,
        per_query_candidates: Optional[Dict[str, Optional[List[Index]]]] = None,
    ) -> WorkloadBuildResult:
        """Build (or load) one cache per query in ``queries``.

        ``candidate_indexes`` is the workload-wide candidate pool; each
        query's build only sees the candidates touching its tables (the same
        filtering the advisor's cost models apply).  ``None`` falls back to
        the builders' default probe indexes.  ``per_query_candidates``
        overrides that filtering with an explicit per-query-name candidate
        mapping -- the session API uses this to build each query's cache for
        exactly the candidate set its cache key was fingerprinted with.
        """
        if not queries:
            raise ReproError("the workload must contain at least one query")
        opts = self.options
        with get_tracer().span(
            "inum.build_workload",
            builder=opts.builder,
            jobs=opts.jobs,
            queries=len(queries),
        ) as span, timed() as wall:
            result = self._build(list(queries), candidate_indexes, per_query_candidates, wall)
        report = result.report
        span.set(
            built=report.queries_built,
            store=report.queries_from_store,
            deduplicated=report.queries_deduplicated,
            serial_fallback=report.serial_fallback_queries,
        )
        return result

    def _build(
        self,
        queries: List[Query],
        candidate_indexes: Optional[Sequence[Index]],
        per_query_candidates: Optional[Dict[str, Optional[List[Index]]]],
        wall: timed,
    ) -> WorkloadBuildResult:
        opts = self.options

        plans = self._plan_queries(queries)
        if per_query_candidates is None:
            per_query_candidates = {
                query.name: self._relevant_candidates(query, candidate_indexes)
                for query, _ in plans
            }
        else:
            missing = [
                query.name for query, _ in plans if query.name not in per_query_candidates
            ]
            if missing:
                raise ReproError(
                    f"per_query_candidates is missing entries for: {', '.join(missing)}"
                )

        caches: Dict[str, InumCache] = {}
        outcomes: Dict[str, QueryBuildOutcome] = {}

        # 1. Persistent store lookups for the primaries.
        to_build: List[Query] = []
        for query, deduped_from in plans:
            if deduped_from is not None:
                continue
            stored = None
            if self.store is not None:
                stored = self.store.load(
                    query, opts.builder, per_query_candidates[query.name]
                )
            if stored is not None:
                caches[query.name] = stored
                outcomes[query.name] = QueryBuildOutcome(
                    query.name, opts.builder, "store", stored.build_stats
                )
            else:
                to_build.append(query)

        # 2. Fresh builds, fanned out when a pool is requested.
        fallback = 0
        if opts.jobs > 1 and len(to_build) > 1:
            built, fallback = self._build_parallel(to_build, per_query_candidates)
        else:
            built = self._build_serial(to_build, per_query_candidates)
        for query in to_build:
            cache = built[query.name]
            caches[query.name] = cache
            outcomes[query.name] = QueryBuildOutcome(
                query.name, opts.builder, "built", cache.build_stats
            )
            if self.store is not None:
                self.store.save(query, cache, opts.builder, per_query_candidates[query.name])

        # 3. Share caches across identical-SQL duplicates.
        for query, deduped_from in plans:
            if deduped_from is None:
                continue
            caches[query.name] = rename_cache(caches[deduped_from], query)
            outcomes[query.name] = QueryBuildOutcome(
                query.name, opts.builder, "deduplicated",
                CacheBuildStatistics(), deduped_from=deduped_from,
            )

        report = WorkloadBuildReport(
            builder=opts.builder,
            jobs=opts.jobs,
            outcomes=[outcomes[query.name] for query in queries],
            wall_seconds=wall.elapsed(),
            serial_fallback_queries=fallback,
        )
        for outcome in report.outcomes:
            BUILD_QUERIES.labels(source=outcome.source).inc()
        return WorkloadBuildResult(caches=caches, report=report)

    # -- internals ---------------------------------------------------------

    def _plan_queries(self, queries: List[Query]) -> List[Tuple[Query, Optional[str]]]:
        """Pair each query with the name of its identical-SQL primary (or None)."""
        plans: List[Tuple[Query, Optional[str]]] = []
        primary_by_fingerprint: Dict[str, str] = {}
        for query in queries:
            if not self.options.dedupe_queries:
                plans.append((query, None))
                continue
            fingerprint = query_fingerprint(query)
            primary = primary_by_fingerprint.get(fingerprint)
            if primary is None:
                primary_by_fingerprint[fingerprint] = query.name
                plans.append((query, None))
            else:
                plans.append((query, primary))
        return plans

    @staticmethod
    def _relevant_candidates(
        query: Query, candidates: Optional[Sequence[Index]]
    ) -> Optional[List[Index]]:
        if candidates is None:
            return None
        return [index for index in candidates if index.table in query.tables]

    def _build_serial(
        self,
        queries: Sequence[Query],
        per_query_candidates: Dict[str, Optional[List[Index]]],
    ) -> Dict[str, InumCache]:
        optimizer = self._optimizer if self._optimizer is not None else Optimizer(self._catalog)
        call_cache = None
        if self.options.use_call_cache:
            call_cache = (
                self._call_cache if self._call_cache is not None else WhatIfCallCache(optimizer)
            )
        return {
            query.name: _build_one_cache(
                optimizer, call_cache, self.options, query, per_query_candidates[query.name]
            )
            for query in queries
        }

    def _build_parallel(
        self,
        queries: Sequence[Query],
        per_query_candidates: Dict[str, Optional[List[Index]]],
    ) -> Tuple[Dict[str, InumCache], int]:
        """Pool build; returns the caches and how many fell back to serial.

        A worker that dies mid-build (killed, out of memory) breaks the
        whole pool: every unfinished task fails with ``BrokenProcessPool``.
        The caches already returned are kept and only the rest are rebuilt
        serially in this process, so one crash costs the lost builds, not
        the finished ones.  Ordinary build errors still propagate.
        """
        if self._catalog_factory is None:
            raise ReproError(
                "parallel workload builds (jobs > 1) need a picklable catalog_factory"
            )
        # Longest first: interesting-order combinations dominate build time,
        # so scheduling wide joins early keeps the pool evenly loaded.
        ordered = sorted(queries, key=_build_complexity, reverse=True)
        workers = min(self.options.jobs, len(ordered))
        caches: Dict[str, InumCache] = {}
        tracer = get_tracer()
        # Workers cannot see this process's spans, so when a trace is active
        # each worker records its build under a root span of its own and
        # ships the finished subtree home with the cache; adopt() re-parents
        # it under the caller's span as if the work had happened in-process.
        traced = tracer.active
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_initialize,
            initargs=(self._catalog_factory, self.options),
        ) as pool:
            futures = [
                pool.submit(_worker_build, (query, per_query_candidates[query.name], traced))
                for query in ordered
            ]
            lost: List[Query] = []
            for query, future in zip(ordered, futures):
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    lost.append(query)
                    continue
                caches[query.name] = cache_from_dict(payload["cache"], query)
                if payload.get("span") is not None:
                    tracer.adopt(payload["span"])
        if lost:
            caches.update(self._build_serial(lost, per_query_candidates))
        return caches, len(lost)


def _build_one_cache(
    optimizer: Optimizer,
    call_cache: Optional[WhatIfCallCache],
    options: WorkloadBuilderOptions,
    query: Query,
    candidates: Optional[Sequence[Index]],
) -> InumCache:
    """Build a single statement's cache with the configured per-query builder.

    The builder class resolves through the CACHE_BUILDERS registry; the
    builtin names get their dedicated option blocks, external builders are
    constructed with ``options=None``.  DML statements build their *shadow*
    query through the same builder and carry a maintenance profile on top
    (:mod:`repro.inum.dml`); the shared what-if layer memoizes both kinds of
    probe.
    """
    builder_class = CACHE_BUILDERS.get(options.builder)
    builder_options = {
        "inum": options.inum_options,
        "pinum": options.pinum_options,
    }.get(options.builder)
    builder = builder_class(optimizer, builder_options, call_cache=call_cache)
    if isinstance(query, DmlStatement):
        return build_statement_cache(
            query,
            candidates,
            optimizer.catalog,
            builder.build_cache,
            whatif=call_cache,
        )
    return builder.build_cache(query, candidates)


def _build_complexity(query: Query) -> int:
    """Sort key for parallel scheduling: interesting-order combinations."""
    if isinstance(query, DmlStatement):
        shadow = query.shadow_query()
        return 0 if shadow is None else combination_count(shadow)
    return combination_count(query)


# -- process-pool workers ----------------------------------------------------------

#: Per-worker-process state: (optimizer, call cache, options).  Populated by
#: the pool initializer so the catalog is constructed once per worker, not
#: once per task.
_WORKER_STATE: dict = {}


def _worker_initialize(
    catalog_factory: Callable[[], Catalog], options: WorkloadBuilderOptions
) -> None:
    catalog = catalog_factory()
    optimizer = Optimizer(catalog)
    call_cache = WhatIfCallCache(optimizer) if options.use_call_cache else None
    _WORKER_STATE["optimizer"] = optimizer
    _WORKER_STATE["call_cache"] = call_cache
    _WORKER_STATE["options"] = options


def _worker_build(task: Tuple[Query, Optional[List[Index]], bool]) -> Dict:
    query, candidates, traced = task
    span = None
    if traced:
        # The parent holds an active span, so record this build under a
        # local root span; the finished subtree travels back in the payload
        # and the parent re-parents it with ``Tracer.adopt``.
        with get_tracer().span("inum.build_worker", root=True, query=query.name) as span:
            cache = _build_one_cache(
                _WORKER_STATE["optimizer"],
                _WORKER_STATE["call_cache"],
                _WORKER_STATE["options"],
                query,
                candidates,
            )
    else:
        cache = _build_one_cache(
            _WORKER_STATE["optimizer"],
            _WORKER_STATE["call_cache"],
            _WORKER_STATE["options"],
            query,
            candidates,
        )
    # Plan caches cross the process boundary in their JSON form: it is
    # compact, picklable and already the persistence format.
    return {
        "cache": cache_to_dict(cache),
        "span": span.to_dict() if span is not None else None,
    }


def rename_cache(cache: InumCache, query: Query) -> InumCache:
    """A copy of ``cache`` re-attached to ``query`` (identical SQL, other name).

    Used for identical-SQL deduplication here and by the session pool when a
    warm cache is reused under a different query name.
    """
    payload = cache_to_dict(cache)
    payload["query_name"] = query.name
    return cache_from_dict(payload, query)
