"""The per-call planning context stays call-scoped; shared plan inputs are safe.

The join planner derives each query fact once per optimizer call and shares
one inner scan and one explicit sort between every plan that reads them.
These tests pin what that must not break: plans hand out lists the caller
owns, shared subtrees serve every parent, and nothing one call learns leaks
into the next -- neither across what-if overlays on one optimizer nor across
optimizers over different catalogs.
"""

from __future__ import annotations

import pytest

from repro.catalog import Catalog, Column, ColumnType, Table, TableStatistics
from repro.catalog.index import Index
from repro.optimizer import Optimizer, OptimizerHooks
from repro.optimizer.joinplanner import PlanningContext
from repro.optimizer.selectivity import SelectivityEstimator
from repro.query import QueryBuilder

from conftest import build_small_catalog


class TestPlanNodes:
    def test_mutating_returned_lists_leaves_the_node_intact(self, optimizer, join_query):
        plan = optimizer.optimize(join_query).plan
        slots = plan.leaf_slots()
        nodes = plan.walk()
        access_cost = plan.access_cost()
        tables = plan.tables

        slots.clear()
        slots.append("junk")
        nodes.reverse()
        nodes.append("junk")

        assert plan.leaf_slots() is not slots
        assert len(plan.leaf_slots()) == len(join_query.tables)
        assert all(slot != "junk" for slot in plan.leaf_slots())
        assert plan.walk()[0] is plan
        assert "junk" not in plan.walk()
        assert plan.access_cost() == access_cost
        assert plan.tables == tables == frozenset(join_query.tables)

    def test_shared_inputs_serve_every_plan(self, small_catalog, join_query):
        """Per-IOC plans share scan and sort nodes; each plan still adds up."""
        for index in (Index("sales", ["s_customer"]), Index("customers", ["c_id"]),
                      Index("products", ["p_id"])):
            small_catalog.add_index(index)
        hooks = OptimizerHooks(keep_all_ioc_plans=True, subsumption_pruning=False)
        result = Optimizer(small_catalog).optimize(join_query, hooks=hooks)
        plans = list(result.ioc_plans.values())

        owners = {}
        for plan in plans:
            for node in {id(n): n for n in plan.walk()}.values():
                owners.setdefault(id(node), set()).add(id(plan))
        assert any(len(plan_ids) > 1 for plan_ids in owners.values()), "no node is shared"
        for plan in plans:
            assert plan.tables == frozenset(join_query.tables)
            # Each table is read exactly once, however its scan is shared.
            assert sorted(s.table for s in plan.leaf_slots()) == sorted(join_query.tables)


class TestNothingLeaksAcrossCalls:
    def _paths_by_index(self, result):
        return {
            (path.table, path.index.columns if path.index else None): path.cost
            for path in result.access_paths
        }

    def test_overlays_on_one_optimizer_see_their_own_access_paths(
        self, small_catalog, join_query
    ):
        narrow = [Index("sales", ["s_customer"], hypothetical=True)]
        wide = [
            Index("sales", ["s_product", "s_customer", "s_amount"], hypothetical=True),
            Index("customers", ["c_id", "c_region"], hypothetical=True),
            Index("products", ["p_category", "p_id"], hypothetical=True),
        ]

        def probe(optimizer, indexes):
            with small_catalog.only_indexes(indexes):
                return optimizer.optimize(
                    join_query, hooks=OptimizerHooks(keep_all_access_paths=True)
                )

        shared = Optimizer(small_catalog)
        first_narrow = probe(shared, narrow)
        first_wide = probe(shared, wide)
        again_narrow = probe(shared, narrow)

        index_paths = {k for k in self._paths_by_index(first_narrow) if k[1] is not None}
        assert index_paths == {("sales", ("s_customer",))}
        wide_paths = {k for k in self._paths_by_index(first_wide) if k[1] is not None}
        assert wide_paths == {(index.table, index.columns) for index in wide}

        # Each call prices exactly what a fresh optimizer prices.
        for indexes, result in ((narrow, first_narrow), (wide, first_wide)):
            fresh = probe(Optimizer(small_catalog), indexes)
            assert repr(result.cost) == repr(fresh.cost)
            assert self._paths_by_index(result) == self._paths_by_index(fresh)
        assert repr(again_narrow.cost) == repr(first_narrow.cost)
        assert first_wide.cost != first_narrow.cost

    def test_catalog_refresh_between_calls_is_seen(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        before = optimizer.optimize(join_query).cost
        sales = small_catalog.table("sales")
        small_catalog.set_statistics("sales", TableStatistics.uniform(sales, 5_000_000))
        after = optimizer.optimize(join_query).cost
        assert after > before
        assert repr(after) == repr(Optimizer(small_catalog).optimize(join_query).cost)


def _catalog_with_amount_width(width: int) -> Catalog:
    """The small star with ``sales.s_amount`` stored ``width`` bytes wide."""
    base = build_small_catalog()
    catalog = Catalog(f"amount{width}")
    for table in base.tables():
        if table.name == "sales":
            columns = [
                Column(c.name, ColumnType.TEXT, width=width) if c.name == "s_amount" else c
                for c in table.columns
            ]
            table = Table(
                table.name, columns, primary_key=table.primary_key,
                foreign_keys=list(table.foreign_keys),
            )
        rows = base.statistics(table.name).row_count
        catalog.add_table(table, TableStatistics.uniform(table, rows))
    catalog.validate()
    return catalog


def test_optimizers_over_different_catalogs_keep_their_own_widths():
    narrow, wide = _catalog_with_amount_width(8), _catalog_with_amount_width(400)
    query = (
        QueryBuilder("sorted_amounts")
        .select("sales.s_amount", "customers.c_region")
        .join("sales.s_customer", "customers.c_id")
        .order_by("sales.s_amount")
        .build()
    )
    widths = {}
    for name, catalog in (("narrow", narrow), ("wide", wide)):
        selectivity = SelectivityEstimator(catalog)
        context = PlanningContext(query, selectivity)
        assert context.row_width(query.tables) == selectivity.output_row_width(
            query, query.tables
        )
        widths[name] = context.row_width(["sales"])
    assert widths["wide"] > widths["narrow"]

    # Interleaved calls on two long-lived optimizers price each catalog as a
    # fresh optimizer does: the wide rows make the final sort spill.
    narrow_optimizer, wide_optimizer = Optimizer(narrow), Optimizer(wide)
    costs = []
    for _ in range(2):
        costs.append((narrow_optimizer.cost(query), wide_optimizer.cost(query)))
    assert costs[0] == costs[1]
    narrow_cost, wide_cost = costs[0]
    assert repr(narrow_cost) == repr(Optimizer(narrow).cost(query))
    assert repr(wide_cost) == repr(Optimizer(wide).cost(query))
    assert wide_cost > narrow_cost


@pytest.mark.parametrize("nestloop", [True, False])
def test_context_rows_match_the_estimator(small_catalog, join_query, nestloop):
    """The per-call join-size memo returns exactly the estimator's figure."""
    selectivity = SelectivityEstimator(small_catalog)
    context = PlanningContext(join_query, selectivity)
    full = frozenset(join_query.tables)
    assert context.join_rows(full) == selectivity.join_result_rows(join_query, full)
    plan = Optimizer(small_catalog).optimize(join_query, enable_nestloop=nestloop).plan
    join_nodes = [node for node in plan.walk() if node.tables == full and node.children]
    assert any(node.rows == context.join_rows(full) for node in join_nodes)
