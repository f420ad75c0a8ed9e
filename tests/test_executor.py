"""Tests for plan execution: correctness of every operator and I/O accounting."""

import dataclasses

import pytest

from repro.catalog.index import Index
from repro.executor import PlanExecutor
from repro.executor.predicates import qualified
from repro.optimizer import Optimizer, OptimizerOptions
from repro.query import QueryBuilder
from repro.storage.datagen import DataGenerator


@pytest.fixture
def database(small_catalog):
    db = DataGenerator(small_catalog, seed=11).generate(
        row_counts={"customers": 200, "products": 80, "sales": 2_000}
    )
    db.analyze()
    return db


def reference_join_rows(database, query):
    """Reference evaluation of a query's join + filters (no grouping).

    Each table's filters are applied to its own rows, then the tables are
    hash-joined in FROM order on every join predicate linking them to the
    tables already joined (a table linked to none is crossed with them).
    The rows, and their order, are those of the brute-force cartesian
    product filtered afterwards; ``TestReferenceOracle`` proves it on small
    inputs, where the product is cheap to enumerate.
    """
    from repro.executor.predicates import apply_predicates, qualify_row

    rows = [{}]
    joined = set()
    for table in query.tables:
        scanned = apply_predicates(
            query.filters_on(table),
            (qualify_row(table, raw) for raw in database.relation(table).rows()),
        )
        links = [j for j in query.joins if table in j.tables and j.tables - {table} <= joined]
        inner_keys = [str(j.column_for(table)) for j in links]
        outer_keys = [str(j.other(table)) for j in links]
        buckets = {}
        for row in scanned:
            buckets.setdefault(tuple(row[k] for k in inner_keys), []).append(row)
        rows = [
            {**outer, **inner}
            for outer in rows
            for inner in buckets.get(tuple(outer[k] for k in outer_keys), ())
        ]
        joined.add(table)
    return rows


def cartesian_reference_rows(database, query):
    """Brute-force evaluation: the full cartesian product, then every predicate."""
    from repro.executor.predicates import apply_predicates, qualify_row
    import itertools

    tables = {t: [qualify_row(t, r) for r in database.relation(t).rows()] for t in query.tables}
    rows = []
    for combo in itertools.product(*tables.values()):
        merged = {}
        for part in combo:
            merged.update(part)
        ok = True
        for join in query.joins:
            if merged[f"{join.left.table}.{join.left.column}"] != merged[
                f"{join.right.table}.{join.right.column}"
            ]:
                ok = False
                break
        if ok:
            rows.append(merged)
    return apply_predicates(query.filters, rows)


def _unfiltered(query):
    return dataclasses.replace(query, filters=())


class TestReferenceOracle:
    """The hash-join reference is the cartesian-product reference, row for row."""

    @pytest.fixture
    def tiny_database(self, small_catalog):
        db = DataGenerator(small_catalog, seed=5).generate(
            row_counts={"customers": 12, "products": 9, "sales": 60}
        )
        db.analyze()
        return db

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QueryBuilder("two_way")
            .select("sales.s_amount", "customers.c_region")
            .join("sales.s_customer", "customers.c_id")
            .where("customers.c_region", "<=", 10_000)
            .build(),
            lambda: QueryBuilder("three_way_filters")
            .select("sales.s_amount")
            .join("sales.s_customer", "customers.c_id")
            .join("sales.s_product", "products.p_id")
            .where_between("products.p_category", 1, 2_500)
            .where("sales.s_quantity", ">=", 200_000)
            .build(),
            # FROM order that meets its first join only at the third table.
            lambda: QueryBuilder("cross_then_join")
            .select("customers.c_region", "products.p_price")
            .from_tables("customers", "products", "sales")
            .join("sales.s_customer", "customers.c_id")
            .join("sales.s_product", "products.p_id")
            .where("customers.c_region", ">=", 5_000)
            .build(),
        ],
        ids=["two_way", "three_way_filters", "cross_then_join"],
    )
    def test_hash_join_reference_equals_cartesian_product(self, tiny_database, build):
        query = build()
        expected = cartesian_reference_rows(tiny_database, query)
        # The filters keep a share of the rows, so the comparison is not vacuous.
        assert 0 < len(expected) < len(cartesian_reference_rows(tiny_database, _unfiltered(query)))
        assert reference_join_rows(tiny_database, query) == expected


class TestScans:
    def test_seq_scan_filtering(self, small_catalog, database):
        query = (
            QueryBuilder("scan")
            .select("products.p_price")
            .from_tables("products")
            .where("products.p_category", "<=", 40)
            .build()
        )
        plan = Optimizer(small_catalog).optimize(query).plan
        result = PlanExecutor(database, query).execute(plan)
        expected = [
            r for r in database.relation("products").rows() if r["p_category"] <= 40
        ]
        assert result.row_count == len(expected)
        assert result.stats.sequential_pages > 0

    def test_index_scan_matches_seq_scan(self, small_catalog, database):
        query = (
            QueryBuilder("scan")
            .select("products.p_price", "products.p_category")
            .from_tables("products")
            .where_between("products.p_category", 10, 1000)
            .order_by("products.p_category")
            .build()
        )
        plain_plan = Optimizer(small_catalog).optimize(query).plan
        plain = PlanExecutor(database, query).execute(plain_plan)

        # Build an index-scan plan explicitly (on tiny tables the optimizer
        # rightly prefers the sequential scan, but the executor must still
        # produce identical rows through the index path).
        from repro.optimizer.access_paths import AccessPathCollector
        from repro.optimizer.cost_model import CostModel
        from repro.optimizer.selectivity import SelectivityEstimator
        from repro.optimizer.plan import ScanNode

        index = Index("products", ["p_category", "p_price"])
        collector = AccessPathCollector(
            small_catalog, CostModel(), SelectivityEstimator(small_catalog)
        )
        with small_catalog.only_indexes([index]):
            paths = collector.all_paths_for_table(query, "products")
        index_path = next(p for p in paths if p.index is not None)
        indexed = PlanExecutor(database, query).execute(ScanNode(index_path))

        assert indexed.row_count == plain.row_count
        key = qualified("products", "p_category")
        assert [r[key] for r in indexed.rows] == sorted(r[key] for r in plain.rows)


class TestJoins:
    @pytest.mark.parametrize("enable_nestloop", [True, False])
    def test_join_results_match_reference(self, small_catalog, database, enable_nestloop):
        query = (
            QueryBuilder("join")
            .select("sales.s_amount", "customers.c_region")
            .join("sales.s_customer", "customers.c_id")
            .where("customers.c_region", "<=", 100)
            .build()
        )
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        optimizer = Optimizer(small_catalog, OptimizerOptions(enable_nestloop=enable_nestloop))
        plan = optimizer.optimize(query).plan
        result = PlanExecutor(database, query).execute(plan)
        expected = reference_join_rows(database, query)
        assert result.row_count == len(expected)

    def test_three_way_join_count(self, small_catalog, database, join_query):
        plan = Optimizer(small_catalog).optimize(join_query).plan
        # Strip the aggregation for the reference count by comparing group sums.
        result = PlanExecutor(database, join_query).execute(plan)
        expected_rows = reference_join_rows(database, join_query)
        # The executed plan aggregates by region; total group membership must match.
        regions = {}
        for row in expected_rows:
            regions.setdefault(row[qualified("customers", "c_region")], 0)
        assert result.row_count == len(regions)


class TestAggregationAndOrdering:
    def test_group_sums_match_reference(self, small_catalog, database, join_query):
        plan = Optimizer(small_catalog).optimize(join_query).plan
        result = PlanExecutor(database, join_query).execute(plan)
        expected_rows = reference_join_rows(database, join_query)
        sums = {}
        for row in expected_rows:
            region = row[qualified("customers", "c_region")]
            sums[region] = sums.get(region, 0.0) + row[qualified("sales", "s_amount")]
        produced = {
            row[qualified("customers", "c_region")]: row["sum(sales.s_amount)"]
            for row in result.rows
        }
        assert produced.keys() == sums.keys()
        for region, total in sums.items():
            assert produced[region] == pytest.approx(total)

    def test_order_by_respected(self, small_catalog, database, simple_query):
        plan = Optimizer(small_catalog).optimize(simple_query).plan
        result = PlanExecutor(database, simple_query).execute(plan)
        assert result.row_count > 0
        # The final projection keeps only the select list, so verify the sort
        # happened by checking the plan shape executed without error and the
        # output size matches the filter.
        expected = [r for r in database.relation("sales").rows() if r["s_quantity"] <= 5_000]
        assert result.row_count == len(expected)

    def test_count_star_aggregate(self, small_catalog, database):
        query = (
            QueryBuilder("counts")
            .aggregate("count")
            .select("customers.c_region")
            .from_tables("customers")
            .group_by("customers.c_region")
            .build()
        )
        plan = Optimizer(small_catalog).optimize(query).plan
        result = PlanExecutor(database, query).execute(plan)
        total = sum(row["count(*)"] for row in result.rows)
        assert total == database.relation("customers").row_count


class TestSimulatedCost:
    def test_indexes_reduce_simulated_time_for_selective_query(self, small_catalog, database):
        query = (
            QueryBuilder("selective")
            .select("sales.s_amount")
            .from_tables("sales")
            .where_between("sales.s_quantity", 1, 2_000)
            .build()
        )
        plain_plan = Optimizer(small_catalog).optimize(query).plan
        plain = PlanExecutor(database, query).execute(plain_plan)

        small_catalog.add_index(Index("sales", ["s_quantity", "s_amount"]))
        indexed_plan = Optimizer(small_catalog).optimize(query).plan
        indexed = PlanExecutor(database, query).execute(indexed_plan)

        assert indexed.row_count == plain.row_count
        assert indexed.simulated_milliseconds < plain.simulated_milliseconds

    def test_statistics_accumulate(self, small_catalog, database, join_query):
        plan = Optimizer(small_catalog).optimize(join_query).plan
        stats = PlanExecutor(database, join_query).execute(plan).stats
        assert stats.rows_processed > 0
        assert stats.sequential_pages + stats.random_pages > 0
        assert stats.simulated_milliseconds() > 0
