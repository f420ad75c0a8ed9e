"""The shared read-only cache tier: one copy of the expensive state for N sessions.

The paper's INUM caches exist so an advisor can answer tuning questions
interactively instead of paying optimizer calls per question.  A concurrent
server multiplies that economy only if the warm state is *shared*: N tenants
over the same catalog must not pay N× cache builds or hold N copies of the
compiled layouts.  :class:`SharedCacheTier` is that process-wide tier:

* **per-catalog namespaces** keyed by catalog *fingerprint* (schema,
  statistics, permanent indexes), so sessions over equal-but-distinct
  :class:`~repro.catalog.catalog.Catalog` objects still share,
* **plan caches** (:class:`~repro.inum.cache.InumCache`), their **compiled
  layouts** (:func:`~repro.inum.compiled.compile_cache`, keyed by cache id),
  **workload arenas** and **what-if optimizer results** published
  copy-on-write:
  readers see immutable snapshot dicts that are replaced wholesale under a
  single-writer lock, never mutated in place,
* **persistent-store pages**: one :class:`~repro.inum.serialization.PageCache`
  shared by every session's :class:`~repro.inum.serialization.CacheStore`,
  so a warm store is read and parsed once per process, not once per tenant.

Sessions keep *mutable* workload state (queries, weights, budget, DML
maintenance profiles) in per-session overlays; only immutable-after-build
artifacts are promoted into the tier.  A SELECT query's plan cache never
changes once built; DML caches are shallow-detached before a session writes
its pool-specific maintenance profile (see
:meth:`~repro.api.session.TuningSession._apply_maintenance`), so the shared
object stays pristine.

Task-safety model (CPython): tier reads are lock-free against published
snapshots; promotions serialize on a per-namespace lock.  Compiled layouts
are immutable after construction; arenas are shared across sessions because
evaluation is read-only up to their internal
:class:`~repro.inum.compiled.IndexSetMemo`, whose entries are deterministic
functions of the key -- a racing double-compute stores the same value twice,
never a wrong one.

Both artifact maps are bounded: layouts by the plan-cache bound (one layout
per cache), arenas by :data:`MAX_POOLED_ARENAS` -- an arena spans a whole
workload, so a server whose sessions each tune a different workload would
otherwise keep every one of them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.inum.serialization import CacheStore, PageCache
from repro.obs.instruments import TIER_LOOKUPS, TIER_PROMOTIONS
from repro.optimizer.whatif import SharedWhatIfResults
from repro.util.fingerprint import catalog_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.catalog.catalog import Catalog
    from repro.inum.cache import InumCache

#: Cap on fused workload arenas, per session pool and per tier namespace.
#: An arena's fingerprint folds every cache id of its workload, so mutating
#: workloads churn fingerprints fast; recompiling one from pooled layouts
#: takes milliseconds.
MAX_POOLED_ARENAS = 8

# Pre-resolved registry children: tier lookups sit on the recommend hot path,
# so the label resolution happens once at import, not per call.
_LOOKUP = {
    ("cache", True): TIER_LOOKUPS.labels(kind="cache", result="hit"),
    ("cache", False): TIER_LOOKUPS.labels(kind="cache", result="miss"),
    ("engine", True): TIER_LOOKUPS.labels(kind="engine", result="hit"),
    ("engine", False): TIER_LOOKUPS.labels(kind="engine", result="miss"),
    ("arena", True): TIER_LOOKUPS.labels(kind="arena", result="hit"),
    ("arena", False): TIER_LOOKUPS.labels(kind="arena", result="miss"),
}


@dataclass
class TierStatistics:
    """Cumulative accounting of one namespace's shared-tier traffic.

    ``cache_hits`` are session lookups answered with an already-promoted
    plan cache (each one is a whole cache build some tenant did not pay);
    ``cache_promotions`` count first-time publications.  The ``engine_*``
    counters (compiled per-cache layouts) and ``arena_*`` counters follow
    the same shape.
    """

    cache_hits: int = 0
    cache_promotions: int = 0
    engine_hits: int = 0
    engine_promotions: int = 0
    arena_hits: int = 0
    arena_promotions: int = 0
    sessions_attached: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON form (for the server's ``server_stats`` operation)."""
        return {
            "cache_hits": self.cache_hits,
            "cache_promotions": self.cache_promotions,
            "engine_hits": self.engine_hits,
            "engine_promotions": self.engine_promotions,
            "arena_hits": self.arena_hits,
            "arena_promotions": self.arena_promotions,
            "sessions_attached": self.sessions_attached,
        }


class TierNamespace:
    """The shared artifacts of one catalog fingerprint.

    All reads go against published snapshot dicts (replaced, never mutated);
    all writes serialize on ``_lock``.  The cache keys are the session's
    :data:`~repro.api.session.CacheKey` -- (query fingerprint, builder,
    candidate-set fingerprint) -- so a tier hit is exactly as safe as a
    session-pool hit.
    """

    def __init__(self, fingerprint: str, *, max_caches: int = 2048) -> None:
        self.fingerprint = fingerprint
        self.whatif = SharedWhatIfResults()
        self.statistics = TierStatistics()
        self._lock = threading.Lock()
        self._max_caches = max(1, max_caches)
        #: Published snapshots; replaced wholesale under ``_lock``.
        self._caches: Dict[tuple, "InumCache"] = {}
        #: Compiled per-cache layouts, keyed by the session's cache id.
        self._engines: Dict[str, object] = {}
        #: Fused workload arenas, keyed by the arena fingerprint
        #: (:func:`repro.inum.arena.arena_fingerprint`).
        self._arenas: Dict[str, object] = {}

    @staticmethod
    def _published(snapshot: Dict, key: object, value: object, bound: int) -> Dict:
        """``snapshot`` plus ``key``, oldest entries dropped past ``bound``."""
        merged = dict(snapshot)
        merged[key] = value
        if len(merged) > bound:
            for stale in list(merged)[: len(merged) - bound]:
                del merged[stale]
        return merged

    # -- plan caches -------------------------------------------------------

    def lookup_cache(self, key: tuple) -> Optional["InumCache"]:
        """The shared cache under ``key`` (lock-free snapshot read)."""
        cache = self._caches.get(key)
        if cache is not None:
            self.statistics.cache_hits += 1
        _LOOKUP[("cache", cache is not None)].inc()
        return cache

    def promote_caches(self, caches: Dict[tuple, "InumCache"]) -> int:
        """Publish a batch of freshly built caches; returns how many were new.

        Copy-on-write: the published dict is rebuilt and swapped in one
        assignment.  Already-promoted keys are left alone (first build wins;
        equal keys imply equal content), so a racing double-build cannot
        flap the shared object identity under other sessions' feet.
        """
        if not caches:
            return 0
        with self._lock:
            fresh = {key: cache for key, cache in caches.items() if key not in self._caches}
            if not fresh:
                return 0
            merged = dict(self._caches)
            merged.update(fresh)
            if len(merged) > self._max_caches:
                for stale in list(merged)[: len(merged) - self._max_caches]:
                    del merged[stale]
            self._caches = merged
            self.statistics.cache_promotions += len(fresh)
            TIER_PROMOTIONS.labels(kind="cache").inc(len(fresh))
            return len(fresh)

    @property
    def cache_count(self) -> int:
        """Plan caches currently published in this namespace."""
        return len(self._caches)

    # -- compiled layouts --------------------------------------------------

    def lookup_engine(self, cache_id: str) -> Optional[object]:
        """The shared compiled layout of ``cache_id`` (lock-free)."""
        layout = self._engines.get(cache_id)
        if layout is not None:
            self.statistics.engine_hits += 1
        _LOOKUP[("engine", layout is not None)].inc()
        return layout

    def promote_engine(self, cache_id: str, layout: object) -> None:
        """Publish one compiled layout copy-on-write (first promotion wins)."""
        with self._lock:
            if cache_id in self._engines:
                return
            self._engines = self._published(
                self._engines, cache_id, layout, self._max_caches
            )
            self.statistics.engine_promotions += 1
            TIER_PROMOTIONS.labels(kind="engine").inc()

    @property
    def engine_count(self) -> int:
        """Compiled layouts currently published in this namespace."""
        return len(self._engines)

    def engine_map(self) -> "SharedEngineMap":
        """A per-session layout-pool view over this namespace."""
        return SharedEngineMap(self)

    # -- workload arenas ---------------------------------------------------

    def lookup_arena(self, arena_id: str) -> Optional[object]:
        """The shared fused arena under ``arena_id`` (lock-free)."""
        arena = self._arenas.get(arena_id)
        if arena is not None:
            self.statistics.arena_hits += 1
        _LOOKUP[("arena", arena is not None)].inc()
        return arena

    def promote_arena(self, arena_id: str, arena: object) -> None:
        """Publish one workload arena copy-on-write (first promotion wins)."""
        with self._lock:
            if arena_id in self._arenas:
                return
            self._arenas = self._published(
                self._arenas, arena_id, arena, MAX_POOLED_ARENAS
            )
            self.statistics.arena_promotions += 1
            TIER_PROMOTIONS.labels(kind="arena").inc()

    @property
    def arena_count(self) -> int:
        """Fused workload arenas currently published in this namespace."""
        return len(self._arenas)

    def arena_map(self) -> "SharedEngineMap":
        """A per-session arena-pool view over this namespace."""
        return SharedEngineMap(self, kind="arena")


class SharedEngineMap:
    """One session's view of a shared artifact pool (layouts or arenas).

    Implements the dict subset the session and
    :class:`~repro.advisor.benefit.CacheBackedWorkloadCostModel` use: reads
    consult the session-local overlay first and fall back to the namespace
    snapshot; writes land in the overlay *and* are promoted.  Iteration and
    deletion -- the session's eviction machinery -- see only the overlay, so
    one session pruning its pool can never evict state other sessions rely
    on (the namespace applies its own copy-on-write bound instead).

    ``kind="engine"`` (the default) views the compiled-layout pool keyed by
    cache id; ``kind="arena"`` views the fused workload-arena pool keyed by
    arena fingerprint strings.
    """

    def __init__(self, namespace: TierNamespace, kind: str = "engine") -> None:
        self._namespace = namespace
        self._local: Dict[object, object] = {}
        if kind == "arena":
            self._lookup = namespace.lookup_arena
            self._promote = namespace.promote_arena
        else:
            self._lookup = namespace.lookup_engine
            self._promote = namespace.promote_engine

    def get(self, key: object, default: object = None) -> object:
        engine = self._local.get(key)
        if engine is None:
            engine = self._lookup(key)
            if engine is not None:
                self._local[key] = engine
        return engine if engine is not None else default

    def __getitem__(self, key: object) -> object:
        engine = self.get(key)
        if engine is None:
            raise KeyError(key)
        return engine

    def __setitem__(self, key: object, engine: object) -> None:
        self._local[key] = engine
        self._promote(key, engine)

    def __delitem__(self, key: object) -> None:
        del self._local[key]

    def __contains__(self, key: object) -> bool:
        return key in self._local

    def __iter__(self):
        return iter(self._local)

    def __len__(self) -> int:
        return len(self._local)

    def clear(self) -> None:
        self._local.clear()


class SharedCacheTier:
    """Process-wide shared read-only tier for concurrent tuning sessions.

    Hand one instance to every :class:`~repro.api.session.TuningSession`
    (``shared_tier=``) -- or let :class:`~repro.api.server.TuningServer` do
    it -- and N sessions over the same catalog share one copy of the plan
    caches, compiled layouts, workload arenas, what-if results and parsed
    store pages.
    The first session pays each build; every later session's
    ``recommend`` is answered with 0 cache builds (reported as
    ``caches_shared`` in its statistics).
    """

    def __init__(self, *, max_caches_per_catalog: int = 2048) -> None:
        self._lock = threading.Lock()
        self._max_caches = max_caches_per_catalog
        self._namespaces: Dict[str, TierNamespace] = {}
        #: One parsed-page cache shared by every session's persistent store.
        self.page_cache = PageCache()
        self._stores: Dict[Tuple[str, str], CacheStore] = {}

    def namespace_for(self, catalog: "Catalog") -> TierNamespace:
        """The (lazily created) namespace serving ``catalog``'s fingerprint."""
        fingerprint = catalog_fingerprint(catalog)
        namespace = self._namespaces.get(fingerprint)
        if namespace is None:
            with self._lock:
                namespace = self._namespaces.get(fingerprint)
                if namespace is None:
                    namespace = TierNamespace(fingerprint, max_caches=self._max_caches)
                    self._namespaces[fingerprint] = namespace
        namespace.statistics.sessions_attached += 1
        return namespace

    def store_for(self, cache_dir: object, catalog: "Catalog") -> CacheStore:
        """One persistent store per (directory, catalog), page cache shared.

        Sessions pointing at the same ``cache_dir`` get the *same*
        :class:`CacheStore` object, so its hit/save statistics aggregate
        across tenants and every parsed page lands in the shared
        :class:`PageCache` exactly once.
        """
        key = (str(Path(cache_dir).resolve()), catalog_fingerprint(catalog))
        store = self._stores.get(key)
        if store is None:
            with self._lock:
                store = self._stores.get(key)
                if store is None:
                    store = CacheStore(cache_dir, catalog, page_cache=self.page_cache)
                    self._stores[key] = store
        return store

    @property
    def namespace_count(self) -> int:
        """How many catalog fingerprints the tier currently serves."""
        return len(self._namespaces)

    def namespaces(self) -> List[TierNamespace]:
        """The live namespaces (snapshot list, safe to iterate)."""
        return list(self._namespaces.values())

    def statistics_dict(self) -> Dict[str, object]:
        """Aggregated tier statistics (for ``server_stats`` and benchmarks)."""
        namespaces = self.namespaces()
        totals = TierStatistics()
        for namespace in namespaces:
            stats = namespace.statistics
            totals.cache_hits += stats.cache_hits
            totals.cache_promotions += stats.cache_promotions
            totals.engine_hits += stats.engine_hits
            totals.engine_promotions += stats.engine_promotions
            totals.arena_hits += stats.arena_hits
            totals.arena_promotions += stats.arena_promotions
            totals.sessions_attached += stats.sessions_attached
        return {
            "catalogs": len(namespaces),
            "caches_published": sum(ns.cache_count for ns in namespaces),
            "engines_published": sum(ns.engine_count for ns in namespaces),
            "arenas_published": sum(ns.arena_count for ns in namespaces),
            "whatif_shared_hits": sum(ns.whatif.hits for ns in namespaces),
            "whatif_shared_promotions": sum(ns.whatif.promotions for ns in namespaces),
            "store_page_hits": self.page_cache.hits,
            "store_page_misses": self.page_cache.misses,
            **totals.to_dict(),
        }
