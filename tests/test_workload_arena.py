"""The fused workload arena: one tensor family answers the whole workload.

Property tests pin the arena's evaluation -- single index sets, whole
batches and CELF frontiers, read-only and weighted-DML -- to the scalar
INUM arithmetic within 1e-9 on randomized plan caches (the same cache
strategy :mod:`test_property_based` uses), for both backends.  The tier
suite covers the one-copy adoption path sessions use.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advisor import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.catalog.index import Index
from repro.inum.access_costs import AccessCostInfo
from repro.inum import arena as arena_module
from repro.inum.arena import arena_fingerprint, compile_arena
from repro.inum.cache import CachedSlot, CacheEntry, InumCache
from repro.inum.compiled import compile_cache, numpy_available
from repro.inum.cost_estimation import InumCostModel
from repro.api.tier import MAX_POOLED_ARENAS, TierNamespace
from repro.optimizer import Optimizer
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.maintenance import MaintenanceProfile
from repro.util.errors import PlanningError

from test_property_based import _StubQuery, cache_with_indexes

_settings = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

#: Both fused backends when numpy is installed, the pure-Python one otherwise.
_BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


# ---------------------------------------------------------------------------
# Randomized workloads: 1-3 plan caches fused into one arena
# ---------------------------------------------------------------------------


@st.composite
def workload_with_indexes(draw):
    """Randomized caches fused into one workload, plus a probe index set.

    Each statement optionally carries a :class:`MaintenanceProfile` (the
    weighted-DML case), and the workload optionally carries a per-statement
    weight vector, so the strategy exercises every evaluate() signature.
    """
    count = draw(st.integers(min_value=1, max_value=3))
    queries, caches = [], {}
    pool = {}
    for position in range(count):
        cache, subset = draw(cache_with_indexes())
        cache.query.name = f"q{position}"
        if draw(st.booleans()):  # a weighted-DML statement
            cache.maintenance = MaintenanceProfile(
                statement=cache.query.name,
                base_cost=draw(st.floats(min_value=0.0, max_value=1e4)),
                per_index={
                    index.key: draw(st.floats(min_value=0.1, max_value=1e4))
                    for index in subset
                    if draw(st.booleans())
                },
            )
        queries.append(cache.query)
        caches[cache.query.name] = cache
        for index in subset:
            pool[index.key] = index
    subset = list(pool.values())
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.0, max_value=50.0),
                min_size=count,
                max_size=count,
            ),
        )
    )
    return queries, caches, subset, weights


def _reference_vector(queries, caches, subset):
    """Scalar per-query costs; PlanningError bubbles.

    :class:`InumCostModel` already folds each cache's maintenance profile
    into the estimate, so this is read + maintenance -- the same quantity
    :meth:`WorkloadArena.per_query_vector` reports.
    """
    vector = []
    for query in queries:
        cost, _ = InumCostModel(caches[query.name]).estimate_with_indexes_detail(
            subset
        )
        vector.append(cost)
    return vector


class TestArenaMatchesScalarArithmetic:
    @_settings
    @given(data=workload_with_indexes())
    def test_evaluate_matches_the_scalar_models(self, data):
        """evaluate/evaluate_detail/query_cost reproduce the scalar sums."""
        queries, caches, subset, weights = data
        try:
            vector = _reference_vector(queries, caches, subset)
        except PlanningError:
            vector = None
        for backend in _BACKENDS:
            arena = compile_arena(queries, caches, backend=backend)
            if vector is None:
                with pytest.raises(PlanningError):
                    arena.evaluate(subset, weights)
                continue
            expected = (
                sum(vector)
                if weights is None
                else sum(w * c for w, c in zip(weights, vector))
            )
            assert arena.evaluate(subset, weights) == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )
            detail = arena.evaluate_detail(subset)
            assert list(detail) == [query.name for query in queries]
            for name, want in zip(detail, vector):
                assert detail[name] == pytest.approx(want, rel=1e-9, abs=1e-9)
                assert arena.query_cost(name, subset) == pytest.approx(
                    want, rel=1e-9, abs=1e-9
                )

    @_settings
    @given(data=workload_with_indexes())
    def test_batch_matches_per_set_evaluation(self, data):
        """evaluate_batch's masked-min batch equals one evaluate() per set."""
        queries, caches, subset, weights = data
        sets = [subset, subset[: len(subset) // 2], [], list(reversed(subset))]
        for backend in _BACKENDS:
            arena = compile_arena(queries, caches, backend=backend)
            try:
                expected = [arena.evaluate(one, weights) for one in sets]
            except PlanningError:
                with pytest.raises(PlanningError):
                    arena.evaluate_batch(sets, weights)
                continue
            got = arena.evaluate_batch(sets, weights)
            assert len(got) == len(expected)
            for have, want in zip(got, expected):
                assert have == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert arena.evaluate_batch([], weights) == []

    @_settings
    @given(data=workload_with_indexes())
    def test_frontier_matches_full_evaluation(self, data):
        """The rank-1 frontier equals evaluating winners + [candidate]."""
        queries, caches, subset, weights = data
        winners = subset[: len(subset) // 2]
        candidates = list(subset[len(subset) // 2 :]) + [None]
        sets = [
            list(winners) + ([candidate] if candidate is not None else [])
            for candidate in candidates
        ]
        for backend in _BACKENDS:
            arena = compile_arena(queries, caches, backend=backend)
            try:
                expected_rows = [arena.per_query_vector(one) for one in sets]
                expected = [arena.evaluate(one, weights) for one in sets]
            except PlanningError:
                with pytest.raises(PlanningError):
                    arena.frontier_detail(winners, candidates, weights)
                continue
            totals, rows = arena.frontier_detail(winners, candidates, weights)
            assert arena.evaluate_frontier(winners, candidates, weights) == totals
            assert len(totals) == len(rows) == len(candidates)
            for have, want in zip(totals, expected):
                assert have == pytest.approx(want, rel=1e-9, abs=1e-9)
            for have_row, want_row in zip(rows, expected_rows):
                for have, want in zip(have_row, want_row):
                    assert have == pytest.approx(want, rel=1e-9, abs=1e-9)

    @needs_numpy
    @_settings
    @given(data=workload_with_indexes())
    def test_backends_agree_with_each_other(self, data):
        """The numpy and pure-Python arenas are interchangeable."""
        queries, caches, subset, weights = data
        python_arena = compile_arena(queries, caches, backend="python")
        numpy_arena = compile_arena(queries, caches, backend="numpy")
        try:
            expected = python_arena.evaluate(subset, weights)
        except PlanningError:
            with pytest.raises(PlanningError):
                numpy_arena.evaluate(subset, weights)
            return
        assert numpy_arena.evaluate(subset, weights) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )
        assert numpy_arena.query_names == python_arena.query_names
        assert numpy_arena.column_count == python_arena.column_count
        assert numpy_arena.entry_count == python_arena.entry_count


@needs_numpy
class TestWeightRuns:
    @_settings
    @given(data=workload_with_indexes())
    def test_sparse_weights_match_the_dense_matrices(self, data):
        """Past the dense-cell bound the numpy arena gathers per-entry weight
        runs instead of multiplying block-diagonal matrices: same answers."""
        queries, caches, subset, weights = data
        winners, candidates = subset[: len(subset) // 2], list(subset) + [None]
        dense = compile_arena(queries, caches, backend="numpy")
        saved = arena_module.DENSE_WEIGHT_CELLS
        arena_module.DENSE_WEIGHT_CELLS = 0
        try:
            sparse = compile_arena(queries, caches, backend="numpy")
        finally:
            arena_module.DENSE_WEIGHT_CELLS = saved
        try:
            expected = dense.frontier_detail(winners, candidates, weights)[0]
        except PlanningError:
            with pytest.raises(PlanningError):
                sparse.frontier_detail(winners, candidates, weights)
            return
        got = sparse.frontier_detail(winners, candidates, weights)[0]
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert sparse.evaluate(subset, weights) == pytest.approx(
            dense.evaluate(subset, weights), rel=1e-9, abs=1e-9
        )


# ---------------------------------------------------------------------------
# Layout validation, identity and memoization
# ---------------------------------------------------------------------------


def _tiny_workload(count=2):
    """A deterministic workload: one seqscan + one index path per table."""
    queries, caches = [], {}
    tables = ["alpha", "beta", "gamma"]
    for position in range(count):
        query = _StubQuery(tables[: position + 1])
        query.name = f"q{position}"
        cache = InumCache(query)
        for table in query.tables:
            cache.access_costs.add(
                AccessCostInfo(
                    table=table,
                    index_key=None,
                    full_cost=90.0 + position,
                    probe_cost=None,
                    provided_order=None,
                )
            )
            index = Index(table, ["a1"])
            cache.access_costs.add(
                AccessCostInfo(
                    table=table,
                    index_key=index.key,
                    full_cost=40.0 + position,
                    probe_cost=4.0,
                    provided_order="a1",
                )
            )
        cache.add_entry(
            CacheEntry(
                ioc=InterestingOrderCombination({t: None for t in query.tables}),
                internal_cost=10.0 * (position + 1),
                slots=tuple(
                    CachedSlot(
                        table=table,
                        required_order=None,
                        multiplier=1.0,
                        parameterized=False,
                    )
                    for table in query.tables
                ),
                uses_nestloop=False,
            )
        )
        queries.append(query)
        caches[query.name] = cache
    return queries, caches


class TestArenaLayout:
    def test_unknown_backend_is_an_error(self):
        queries, caches = _tiny_workload()
        with pytest.raises(PlanningError):
            compile_arena(queries, caches, backend="fortran")

    def test_missing_cache_is_an_error(self):
        queries, _ = _tiny_workload()
        with pytest.raises(PlanningError):
            compile_arena(queries, {}, backend="python")

    def test_empty_plan_cache_is_an_error(self):
        query = _StubQuery(["alpha"])
        query.name = "empty"
        with pytest.raises(PlanningError):
            compile_arena([query], {"empty": InumCache(query)}, backend="python")

    def test_shared_access_methods_use_one_global_column(self):
        """Both queries' (alpha, a1) paths collapse onto one arena column."""
        queries, caches = _tiny_workload(count=2)
        arena = compile_arena(queries, caches, backend="python")
        index = Index("alpha", ["a1"])
        assert arena.query_count == 2
        # alpha heap + alpha a1 + beta heap + beta a1: shared, not per-query.
        assert arena.column_count == 4
        assert arena.column_for(index) is not None
        assert arena.column_for(Index("alpha", ["uncollected"])) is None

    def test_mask_memo_counts_hits(self):
        queries, caches = _tiny_workload()
        arena = compile_arena(queries, caches, backend="python")
        index = Index("alpha", ["a1"])
        hits_before, misses_before = arena.memo_counters()
        arena.evaluate([index])
        arena.evaluate([index])
        hits, misses = arena.memo_counters()
        assert misses == misses_before + 1
        assert hits == hits_before + 1

    def test_pooled_layouts_are_stacked_not_recompiled(self):
        """compile_arena stacks the caller's layouts; maintenance comes from
        the caches, so a pooled layout never carries a stale write profile."""
        queries, caches = _tiny_workload()
        layouts = {name: compile_cache(cache) for name, cache in caches.items()}
        index = Index("alpha", ["a1"])
        fresh = compile_arena(queries, caches, backend="python")
        pooled = compile_arena(queries, caches, backend="python", layouts=layouts)
        assert pooled.evaluate([index]) == fresh.evaluate([index])
        caches["q0"].maintenance = MaintenanceProfile(
            statement="q0", base_cost=5.0, per_index={index.key: 7.0}
        )
        charged = compile_arena(queries, caches, backend="python", layouts=layouts)
        assert charged.query_cost("q0", [index]) == fresh.query_cost("q0", [index]) + 12.0

    def test_fingerprint_identity(self):
        cache_ids = {"q0": "cache-a", "q1": "cache-b"}
        fingerprint = arena_fingerprint(["q0", "q1"], cache_ids, "numpy")
        assert fingerprint == arena_fingerprint(["q0", "q1"], cache_ids, "numpy")
        assert fingerprint.startswith("arena:")
        # Vector order, backend and cache identity (which folds in the
        # maintenance digest) all change the arena.
        assert arena_fingerprint(["q1", "q0"], cache_ids, "numpy") != fingerprint
        assert arena_fingerprint(["q0", "q1"], cache_ids, "python") != fingerprint
        assert (
            arena_fingerprint(
                ["q0", "q1"], {"q0": "cache-a|maint:x", "q1": "cache-b"}, "numpy"
            )
            != fingerprint
        )


# ---------------------------------------------------------------------------
# Tier integration: one arena copy for every session
# ---------------------------------------------------------------------------


class TestTierArenaSharing:
    def test_namespace_promotes_once_and_counts_hits(self):
        namespace = TierNamespace("fingerprint")
        first, second = object(), object()
        namespace.promote_arena("arena:abc", first)
        namespace.promote_arena("arena:abc", second)
        assert namespace.lookup_arena("arena:abc") is first, "first promotion wins"
        assert namespace.lookup_arena("arena:missing") is None
        assert namespace.arena_count == 1
        assert namespace.statistics.arena_promotions == 1
        assert namespace.statistics.arena_hits == 1

    def test_arena_map_shares_through_the_namespace(self):
        namespace = TierNamespace("fingerprint")
        mine = namespace.arena_map()
        theirs = namespace.arena_map()
        marker = object()
        mine["arena:x"] = marker
        assert theirs.get("arena:x") is marker, "adopted through the namespace"
        # A session pruning its own pool never evicts the shared copy.
        del mine["arena:x"]
        assert "arena:x" not in mine
        assert theirs["arena:x"] is marker
        assert namespace.arena_count == 1

    def test_namespace_arena_bound(self):
        """Every session tuning a new workload promotes an arena; the
        namespace keeps only the newest MAX_POOLED_ARENAS of them."""
        namespace = TierNamespace("fingerprint")
        for position in range(MAX_POOLED_ARENAS + 5):
            namespace.promote_arena(f"arena:{position}", object())
        assert namespace.arena_count == MAX_POOLED_ARENAS
        assert namespace.lookup_arena("arena:0") is None
        assert namespace.lookup_arena(f"arena:{MAX_POOLED_ARENAS + 4}") is not None


# ---------------------------------------------------------------------------
# Cost-model integration: engine="arena" agrees with the scalar reference
# ---------------------------------------------------------------------------


class TestArenaEngineIntegration:
    def test_cost_model_arena_engine_matches_per_query_engines(
        self, small_catalog, join_query, simple_query
    ):
        queries = [join_query, simple_query]
        candidates = CandidateGenerator(small_catalog).for_workload(queries)
        model = CacheBackedWorkloadCostModel(
            Optimizer(small_catalog), queries, candidates, mode="pinum", engine="scalar"
        )
        probes = [candidates[:0], candidates[:1], candidates[:3], candidates]
        expected = [
            (model.per_query_costs(probe), model.workload_cost(probe))
            for probe in probes
        ]

        model.select_engine("arena")
        for probe, (per_query, total) in zip(probes, expected):
            arena_per_query = model.per_query_costs(probe)
            assert set(arena_per_query) == set(per_query)
            for name, want in per_query.items():
                assert arena_per_query[name] == pytest.approx(
                    want, rel=1e-9, abs=1e-9
                )
            assert model.workload_cost(probe) == pytest.approx(
                total, rel=1e-9, abs=1e-9
            )
