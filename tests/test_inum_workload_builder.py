"""Tests for the workload-scale cache builder."""

import dataclasses
import functools
import multiprocessing
import os
import time

import pytest

from repro.advisor import CandidateGenerator
from repro.api.registry import CACHE_BUILDERS
from repro.inum import (
    CacheStore,
    WorkloadBuilderOptions,
    WorkloadCacheBuilder,
)
from repro.pinum.cache_builder import PinumCacheBuilder
from repro.util.errors import ReproError
from repro.workloads import builtin_catalog_factory
from repro.workloads.tpch_like import (
    build_tpch_like_catalog,
    tpch_q5_like_query,
    tpch_small_join_query,
)

from conftest import build_join_query, build_simple_query


#: Environment variable naming the directory the crash test's builders use
#: to signal each other across worker processes.
_CRASH_DIR = "REPRO_TEST_CRASH_DIR"


class _CrashingBuilder(PinumCacheBuilder):
    """A PINUM builder whose pool worker dies on ``tpch_small_join``.

    Other builds drop a marker file when they finish; the doomed worker
    waits for it (plus a grace period for the result to travel home), so
    the crash reliably lands after a finished cache.  In the parent process
    it builds normally -- that is the serial fallback under test.
    """

    def build_cache(self, query, candidate_indexes=None):
        marker = os.path.join(os.environ[_CRASH_DIR], "finished")
        if query.name == "tpch_small_join" and multiprocessing.parent_process() is not None:
            deadline = time.monotonic() + 60.0
            while not os.path.exists(marker) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(1)
        cache = super().build_cache(query, candidate_indexes)
        open(marker, "w").close()
        return cache


def _crashing_catalog_factory():
    CACHE_BUILDERS.register("crash-test", _CrashingBuilder, replace=True)
    return build_tpch_like_catalog()


@pytest.fixture
def workload():
    return [build_join_query("wq_join"), build_simple_query("wq_scan")]


@pytest.fixture
def candidates(small_catalog, workload):
    return CandidateGenerator(small_catalog).for_workload(workload)


class TestSerialBuild:
    def test_builds_every_query(self, small_catalog, workload, candidates):
        result = WorkloadCacheBuilder(small_catalog).build(workload, candidates)
        assert set(result.caches) == {"wq_join", "wq_scan"}
        for query in workload:
            cache = result.cache_for(query)
            cache.validate()
        report = result.report
        assert report.queries_total == 2
        assert report.queries_built == 2
        assert report.optimizer_calls > 0
        assert report.wall_seconds > 0

    def test_inum_builder_reports_memoization_hits(self, small_catalog, workload, candidates):
        options = WorkloadBuilderOptions(builder="inum")
        result = WorkloadCacheBuilder(small_catalog, options).build(workload, candidates)
        assert result.report.whatif_cache_hits > 0
        assert result.report.whatif_hit_rate > 0

    def test_call_cache_can_be_disabled(self, small_catalog, workload, candidates):
        options = WorkloadBuilderOptions(builder="inum", use_call_cache=False)
        result = WorkloadCacheBuilder(small_catalog, options).build(workload, candidates)
        assert result.report.whatif_cache_hits == 0

    def test_identical_sql_built_once(self, small_catalog, candidates):
        query = build_join_query("wq_join")
        twin = dataclasses.replace(query, name="wq_join_again")
        result = WorkloadCacheBuilder(small_catalog).build([query, twin], candidates)
        report = result.report
        assert report.queries_built == 1
        assert report.queries_deduplicated == 1
        outcome = report.outcome_for("wq_join_again")
        assert outcome.source == "deduplicated"
        assert outcome.deduped_from == "wq_join"
        assert result.caches["wq_join_again"].entry_count == result.caches["wq_join"].entry_count

    def test_dedupe_can_be_disabled(self, small_catalog, candidates):
        query = build_join_query("wq_join")
        twin = dataclasses.replace(query, name="wq_join_again")
        options = WorkloadBuilderOptions(dedupe_queries=False)
        result = WorkloadCacheBuilder(small_catalog, options).build([query, twin], candidates)
        assert result.report.queries_built == 2

    def test_empty_workload_rejected(self, small_catalog):
        with pytest.raises(ReproError):
            WorkloadCacheBuilder(small_catalog).build([])

    def test_unknown_query_lookup_rejected(self, small_catalog, workload, candidates):
        result = WorkloadCacheBuilder(small_catalog).build(workload, candidates)
        with pytest.raises(ReproError):
            result.cache_for(build_join_query("never_built"))


class TestOptions:
    def test_unknown_builder_rejected(self):
        with pytest.raises(ReproError):
            WorkloadBuilderOptions(builder="bogus")

    def test_non_positive_jobs_rejected(self):
        with pytest.raises(ReproError):
            WorkloadBuilderOptions(jobs=0)

    def test_catalog_or_factory_required(self):
        with pytest.raises(ReproError):
            WorkloadCacheBuilder()

    def test_parallel_without_factory_rejected(self, small_catalog, workload, candidates):
        builder = WorkloadCacheBuilder(small_catalog, WorkloadBuilderOptions(jobs=2))
        with pytest.raises(ReproError):
            builder.build(workload, candidates)


class TestParallelBuild:
    def test_pool_build_matches_serial(self):
        factory = functools.partial(builtin_catalog_factory, "tpch")
        queries = [tpch_q5_like_query(), tpch_small_join_query()]
        catalog = build_tpch_like_catalog()
        candidates = CandidateGenerator(catalog).for_workload(queries)

        serial = WorkloadCacheBuilder(catalog).build(queries, candidates)
        parallel = WorkloadCacheBuilder(
            catalog, WorkloadBuilderOptions(jobs=2), catalog_factory=factory
        ).build(queries, candidates)

        assert parallel.report.jobs == 2
        for query in queries:
            fast, slow = parallel.caches[query.name], serial.caches[query.name]
            assert fast.entry_count == slow.entry_count
            assert len(fast.access_costs) == len(slow.access_costs)
            assert fast.build_stats.optimizer_calls_total == (
                slow.build_stats.optimizer_calls_total
            )


    def test_worker_crash_keeps_finished_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_CRASH_DIR, str(tmp_path))
        CACHE_BUILDERS.register("crash-test", _CrashingBuilder, replace=True)
        try:
            queries = [tpch_q5_like_query(), tpch_small_join_query()]
            catalog = build_tpch_like_catalog()
            candidates = CandidateGenerator(catalog).for_workload(queries)
            serial = WorkloadCacheBuilder(catalog).build(queries, candidates)
            crashed = WorkloadCacheBuilder(
                catalog,
                WorkloadBuilderOptions(builder="crash-test", jobs=2),
                catalog_factory=_crashing_catalog_factory,
            ).build(queries, candidates)
        finally:
            CACHE_BUILDERS.unregister("crash-test")

        # Only the crashed worker's query is rebuilt; q5 came from the pool.
        assert crashed.report.serial_fallback_queries == 1
        assert crashed.report.queries_built == 2
        for query in queries:
            rebuilt, reference = crashed.caches[query.name], serial.caches[query.name]
            assert rebuilt.entry_count == reference.entry_count
            assert len(rebuilt.access_costs) == len(reference.access_costs)


class TestStoreIntegration:
    def test_second_build_loads_from_store(self, tmp_path, small_catalog, workload, candidates):
        store = CacheStore(tmp_path, small_catalog)
        builder = WorkloadCacheBuilder(small_catalog, store=store)
        cold = builder.build(workload, candidates)
        assert cold.report.queries_built == 2
        assert store.stored_count() == 2

        warm = builder.build(workload, candidates)
        assert warm.report.queries_from_store == 2
        assert warm.report.queries_built == 0
        assert warm.report.optimizer_calls == 0
        for query in workload:
            assert warm.caches[query.name].entry_count == cold.caches[query.name].entry_count

    def test_changed_candidates_rebuild(self, tmp_path, small_catalog, workload, candidates):
        store = CacheStore(tmp_path, small_catalog)
        builder = WorkloadCacheBuilder(small_catalog, store=store)
        builder.build(workload, candidates)
        shrunk = builder.build(workload, candidates[:-1])
        assert shrunk.report.queries_built > 0
