"""The shared read-only cache tier: N sessions, one copy of the warm state.

Covers the ISSUE 6 acceptance points: a second session over an
equal-but-distinct catalog performs **zero** cache builds (everything is
adopted from the tier), sessions never observe each other's mutable state
(workloads, weights, DML maintenance profiles), and the whole stack stays
well-behaved under real thread concurrency (the CI concurrency-stress job
runs this module under ``PYTHONFAULTHANDLER=1``).
"""

from __future__ import annotations

import threading

from repro.advisor.advisor import AdvisorOptions
from repro.api.serve import _load_catalog_and_workload
from repro.api.session import TuningSession
from repro.api.tier import SharedCacheTier, TierNamespace
from repro.inum.cache import InumCache
from repro.inum.serialization import CacheStore, PageCache
from repro.query.parser import parse_statement


def _session(tier, catalog_name="tpch", seed=7, **options):
    catalog, workload = _load_catalog_and_workload(catalog_name, seed)
    return TuningSession(
        catalog,
        workload,
        options=AdvisorOptions(**options) if options else None,
        shared_tier=tier,
    )


class TestSharedBuilds:
    def test_second_session_builds_nothing(self):
        """Distinct sessions over equal catalogs share every cache build."""
        tier = SharedCacheTier()
        first = _session(tier)
        second = _session(tier)

        cold = first.recommend()
        assert cold.caches_built > 0
        assert cold.caches_shared == 0

        warm = second.recommend()
        assert warm.caches_built == 0, "second session should adopt, not build"
        assert warm.caches_from_store == 0
        assert warm.caches_shared == cold.caches_built

        # Identical inputs -> identical outputs, through the shared objects.
        assert [i.key for i in warm.result.selected_indexes] == [
            i.key for i in cold.result.selected_indexes
        ]
        assert warm.result.workload_cost_after == cold.result.workload_cost_after

    def test_tier_statistics_account_for_the_sharing(self):
        tier = SharedCacheTier()
        first = _session(tier)
        first.recommend()
        second = _session(tier)
        second.recommend()

        stats = tier.statistics_dict()
        assert stats["catalogs"] == 1
        assert stats["sessions_attached"] == 2
        assert stats["cache_promotions"] == first.statistics.caches_built
        assert stats["cache_hits"] == second.statistics.caches_shared
        # One compiled layout per built cache; the identical second workload
        # adopts the whole arena, so it never needs the layouts themselves.
        assert stats["engine_promotions"] == first.statistics.caches_built
        assert stats["arena_promotions"] == 1
        assert stats["arena_hits"] >= 1

    def test_new_workload_restacks_shared_layouts(self):
        """A session tuning a different workload over shared caches misses
        the arena but adopts every layout by cache id instead of compiling."""
        tier = SharedCacheTier()
        first = _session(tier, candidate_policy="per_query")
        first.recommend()
        catalog, workload = _load_catalog_and_workload("tpch", 7)
        second = TuningSession(
            catalog,
            workload[:1],
            options=AdvisorOptions(candidate_policy="per_query"),
            shared_tier=tier,
        )
        response = second.recommend()
        assert response.caches_built == 0
        stats = tier.statistics_dict()
        assert stats["arena_promotions"] == 2, "a new workload is a new arena"
        assert stats["engine_hits"] == 1, "its one layout came from the tier"
        assert stats["engines_published"] == 2

    def test_different_catalogs_use_different_namespaces(self):
        tier = SharedCacheTier()
        tpch = _session(tier, "tpch")
        star = _session(tier, "star")
        tpch.recommend()
        star.recommend()
        assert tier.namespace_count == 2
        assert star.statistics.caches_shared == 0
        assert star.statistics.caches_built > 0


class TestSessionIsolation:
    def test_weights_do_not_leak_between_sessions(self):
        """A tenant reweighting its workload must not move its neighbour."""
        tier = SharedCacheTier()
        first = _session(tier)
        second = _session(tier)
        baseline = first.recommend()

        name = second.queries[0].name
        second.set_weights({name: 25.0})
        second.recommend()

        again = first.recommend()
        assert again.result.workload_cost_after == baseline.result.workload_cost_after
        assert again.caches_built == 0

    def test_workload_mutations_do_not_leak(self):
        tier = SharedCacheTier()
        first = _session(tier)
        second = _session(tier)
        first.recommend()
        before = len(first.queries)

        second.add_queries([
            parse_statement(
                "SELECT orders.o_orderkey FROM orders "
                "WHERE orders.o_totalprice > 1000",
                name="tenant2_only",
            )
        ])
        second.recommend()

        assert len(first.queries) == before
        assert "tenant2_only" not in first.query_names

    def test_dml_maintenance_is_applied_on_a_detached_copy(self):
        """Tier-shared DML caches are never mutated by a session's profile.

        Both sessions tune the same mixed workload but with different DML
        weights, so their candidate pools (and maintenance profiles) can
        diverge; the shared cache object must keep whatever state it was
        published with.
        """
        tier = SharedCacheTier()
        dml_sql = (
            "INSERT INTO orders (o_orderkey, o_custkey, o_totalprice) "
            "VALUES (1, 2, 3.0)"
        )
        first = _session(tier)
        first.add_queries([parse_statement(dml_sql, name="feed")])
        cold = first.recommend()
        assert cold.caches_built > 0

        namespace = first.tier_namespace
        shared_maintenance = {
            key: cache.maintenance
            for key, cache in namespace._caches.items()
        }

        second = _session(tier)
        second.add_queries([parse_statement(dml_sql, name="feed")])
        second.set_weights({"feed": 50.0})
        warm = second.recommend()
        assert warm.caches_built == 0
        assert warm.caches_shared == cold.caches_built

        # The published objects kept exactly the maintenance state they
        # were promoted with: the second tenant worked on detached copies.
        for key, cache in namespace._caches.items():
            assert cache.maintenance is shared_maintenance[key]

        # And the first session still reproduces its own answer.
        repeat = first.recommend()
        assert repeat.result.workload_cost_after == cold.result.workload_cost_after


class TestDetachedCopy:
    def test_detached_copy_shares_entries_but_not_maintenance(self):
        query = parse_statement(
            "SELECT orders.o_orderkey FROM orders", name="q"
        )
        cache = InumCache(query)
        clone = cache.detached_copy()
        assert clone.entries is cache.entries
        assert clone.access_costs is cache.access_costs
        clone.maintenance = object()
        assert cache.maintenance is None


class TestTierInternals:
    def test_promotion_is_first_build_wins(self):
        namespace = TierNamespace("fp")
        query = parse_statement("SELECT orders.o_orderkey FROM orders", name="q")
        first, second = InumCache(query), InumCache(query)
        assert namespace.promote_caches({("k",): first}) == 1
        assert namespace.promote_caches({("k",): second}) == 0
        assert namespace.lookup_cache(("k",)) is first

    def test_cache_bound_is_enforced(self):
        namespace = TierNamespace("fp", max_caches=4)
        query = parse_statement("SELECT orders.o_orderkey FROM orders", name="q")
        for position in range(10):
            namespace.promote_caches({("k", position): InumCache(query)})
        assert namespace.cache_count <= 4

    def test_engine_map_deletion_is_local(self):
        """One session pruning its layout pool cannot evict for everyone."""
        namespace = TierNamespace("fp")
        first = namespace.engine_map()
        second = namespace.engine_map()
        layout = object()
        first["cache-1"] = layout
        assert second.get("cache-1") is layout
        del second["cache-1"]
        assert "cache-1" not in second  # local view only
        assert first.get("cache-1") is layout
        assert namespace.lookup_engine("cache-1") is layout

    def test_layout_bound_follows_the_cache_bound(self):
        """One layout per cache: the layout map is capped like the caches."""
        namespace = TierNamespace("fp", max_caches=4)
        for position in range(10):
            namespace.promote_engine(f"cache-{position}", object())
        assert namespace.engine_count == 4
        assert namespace.lookup_engine("cache-0") is None
        assert namespace.lookup_engine("cache-9") is not None

    def test_store_page_cache_is_shared(self, tmp_path):
        """Two stores over one PageCache parse each saved file once."""
        catalog, workload = _load_catalog_and_workload("tpch", 7)
        pages = PageCache()
        writer = CacheStore(tmp_path, catalog, page_cache=pages)
        reader = CacheStore(tmp_path, catalog, page_cache=pages)

        session = TuningSession(catalog, workload)
        query = workload[0]
        candidates = session._generator.for_query(query)
        cache = session.build_query_cache(query, candidates=candidates)
        writer.save(query, cache, "pinum", list(candidates))

        assert writer.load(query, "pinum", list(candidates)) is not None
        misses_after_first = pages.misses
        assert reader.load(query, "pinum", list(candidates)) is not None
        assert pages.misses == misses_after_first, "second parse should be a page hit"
        assert pages.hits >= 1

    def test_store_for_returns_one_store_per_directory(self, tmp_path):
        tier = SharedCacheTier()
        catalog, _ = _load_catalog_and_workload("tpch", 7)
        assert tier.store_for(tmp_path, catalog) is tier.store_for(tmp_path, catalog)


class TestThreadedStress:
    def test_concurrent_sessions_share_and_agree(self):
        """Real threads, one tier: every session converges on one answer.

        This is the CI concurrency-stress entry point: racing sessions must
        neither crash, nor double-build more than once per cache (the
        first-build-wins window allows concurrent *initial* builds), nor
        disagree on the recommendation.
        """
        tier = SharedCacheTier()
        results: list = []
        errors: list = []
        barrier = threading.Barrier(4)

        def tenant(position: int) -> None:
            try:
                session = _session(tier)
                barrier.wait(timeout=30)
                response = session.recommend()
                if position % 2:
                    session.set_weights({session.queries[0].name: 3.0 + position})
                    session.recommend()
                results.append(
                    (response.result.workload_cost_after,
                     [i.key for i in response.result.selected_indexes])
                )
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=tenant, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == 4
        assert len({(cost, tuple(picks)) for cost, picks in results}) == 1

        stats = tier.statistics_dict()
        # First-build-wins: racing initial builds may each construct, but
        # the tier publishes one winner per key.
        namespace = tier.namespaces()[0]
        assert stats["caches_published"] == namespace.cache_count
        assert stats["sessions_attached"] == 4
