"""Tests for the DP join planner, its keep-all-IOC mode and subsumption pruning."""

import pytest

from repro.catalog.index import Index
from repro.optimizer.access_paths import AccessPathCollector
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import (
    InterestingOrderCombination,
    enumerate_combinations,
    interesting_orders_by_table,
)
from repro.optimizer.joinplanner import JoinPlanner, PlanningContext, prune_subsumed_plans
from repro.optimizer.selectivity import SelectivityEstimator
from repro.query import QueryBuilder
from repro.util.errors import PlanningError


class _Planner:
    """Plans each query through a fresh per-call context, as the optimizer does."""

    def __init__(self, selectivity, enable_nestloop):
        self._selectivity = selectivity
        self._planner = JoinPlanner(CostModel(), selectivity, enable_nestloop)

    def plan(self, query, access_paths, hooks=None):
        context = PlanningContext(query, self._selectivity)
        return self._planner.plan(context, access_paths, hooks)


def make_planner(catalog, enable_nestloop=True):
    selectivity = SelectivityEstimator(catalog)
    return (
        _Planner(selectivity, enable_nestloop),
        AccessPathCollector(catalog, CostModel(), selectivity),
    )


class TestBasicPlanning:
    def test_single_table_query(self, small_catalog, simple_query):
        planner, collector = make_planner(small_catalog)
        result = planner.plan(simple_query, collector.collect(simple_query))
        assert result.candidates
        assert result.candidates[0].tables == frozenset({"sales"})

    def test_join_query_covers_all_tables(self, small_catalog, join_query):
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query))
        best = min(result.candidates, key=lambda p: p.total_cost)
        assert best.tables == frozenset(join_query.tables)

    def test_missing_access_paths_rejected(self, small_catalog, join_query):
        planner, _ = make_planner(small_catalog)
        with pytest.raises(PlanningError):
            planner.plan(join_query, {})

    def test_disconnected_graph_rejected(self, small_catalog):
        query = (
            QueryBuilder("disconnected")
            .select("sales.s_amount", "products.p_price")
            .from_tables("sales", "products")
            .build()
        )
        planner, collector = make_planner(small_catalog)
        with pytest.raises(PlanningError):
            planner.plan(query, collector.collect(query))

    def test_costs_are_positive_and_finite(self, small_catalog, join_query):
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query))
        for plan in result.candidates:
            assert plan.total_cost > 0
            assert plan.total_cost < float("inf")


class TestJoinMethods:
    def test_nestloop_disabled_removes_nested_loops(self, small_catalog, join_query):
        small_catalog.add_index(Index("customers", ["c_id"]))
        small_catalog.add_index(Index("products", ["p_id"]))
        planner, collector = make_planner(small_catalog, enable_nestloop=False)
        result = planner.plan(join_query, collector.collect(join_query))
        assert all(not plan.uses_nested_loop() for plan in result.candidates)

    def test_nestloop_used_when_beneficial(self, small_catalog):
        """A selective outer and an index on the inner join column favour NLJ."""
        small_catalog.add_index(Index("sales", ["s_customer"]))
        query = (
            QueryBuilder("selective")
            .select("sales.s_amount")
            .join("sales.s_customer", "customers.c_id")
            .where_between("customers.c_age", 1, 50)
            .build()
        )
        planner, collector = make_planner(small_catalog, enable_nestloop=True)
        result = planner.plan(query, collector.collect(query))
        best = min(result.candidates, key=lambda p: p.total_cost)
        assert best.uses_nested_loop()

    def test_enabling_nestloop_never_hurts(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        planner_on, collector = make_planner(small_catalog, enable_nestloop=True)
        planner_off, _ = make_planner(small_catalog, enable_nestloop=False)
        paths = collector.collect(join_query)
        best_on = min(p.total_cost for p in planner_on.plan(join_query, paths).candidates)
        best_off = min(p.total_cost for p in planner_off.plan(join_query, paths).candidates)
        assert best_on <= best_off + 1e-6

    def test_merge_join_sorts_priced_with_reference_widths(self, small_catalog, join_query):
        """Every explicit merge-join sort is priced with the estimator's width."""
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        selectivity = SelectivityEstimator(small_catalog)
        # A one-page work_mem makes every sort spill, so its cost depends on
        # the row width.
        cost_model = CostModel(CostParameters(work_mem_pages=1))
        planner = JoinPlanner(cost_model, selectivity)
        collector = AccessPathCollector(small_catalog, cost_model, selectivity)
        hooks = OptimizerHooks(keep_all_ioc_plans=True, subsumption_pruning=False)
        context = PlanningContext(join_query, selectivity)
        result = planner.plan(context, collector.collect(join_query), hooks)
        sorts = [
            child
            for plan in [*result.candidates, *result.ioc_plans.values()]
            for node in plan.walk()
            if node.node_type == "mergejoin"
            for child in node.children
            if child.node_type == "sort"
        ]
        assert sorts
        spilled = 0
        for sort in sorts:
            (child,) = sort.children
            width = selectivity.output_row_width(join_query, child.tables)
            assert sort.total_cost == cost_model.sort(child.total_cost, child.rows, width)
            pages = child.rows * width / cost_model.params.page_size
            spilled += pages > cost_model.params.work_mem_pages
        assert spilled, "no sort spills, so a wrong row width would go unnoticed"


class TestKeepAllIocPlans:
    def _hooked(self, subsumption=False):
        return OptimizerHooks(keep_all_ioc_plans=True, subsumption_pruning=subsumption)

    def test_ioc_plans_populated(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query), self._hooked())
        assert len(result.ioc_plans) > 1
        # The empty combination (all sequential scans) must always be present.
        empty = [ioc for ioc in result.ioc_plans if ioc.order_count == 0]
        assert empty

    def test_ioc_plans_are_subset_of_enumeration(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        small_catalog.add_index(Index("customers", ["c_region"]))
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query), self._hooked())
        valid = set(enumerate_combinations(join_query))
        assert set(result.ioc_plans) <= valid

    def test_each_ioc_plan_requires_its_ioc(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query), self._hooked())
        self._assert_keys_are_normalized_leaf_orders(join_query, result)

    def test_uninteresting_leaf_orders_key_as_phi(self, small_catalog):
        """A leaf ordered on a filter-only column keys its plan like a seq scan."""
        query = (
            QueryBuilder("filtered_amounts")
            .select("customers.c_region")
            .aggregate("sum", "sales.s_amount")
            .join("sales.s_customer", "customers.c_id")
            .join("sales.s_product", "products.p_id")
            .where("sales.s_amount", "<=", 1_000)
            .group_by("customers.c_region")
            .build()
        )
        small_catalog.add_index(Index("sales", ["s_amount"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        result = planner.plan(query, collector.collect(query), self._hooked())
        assert "s_amount" not in interesting_orders_by_table(query)["sales"]
        uses_filter_order = [
            ioc
            for ioc, plan in result.ioc_plans.items()
            if any(slot.path.provided_order == "s_amount" for slot in plan.leaf_slots())
        ]
        assert uses_filter_order, "no kept plan reads the filter-ordered index"
        assert all(ioc.order_for("sales") is None for ioc in uses_filter_order)
        self._assert_keys_are_normalized_leaf_orders(query, result)

    @staticmethod
    def _assert_keys_are_normalized_leaf_orders(query, result):
        orders = interesting_orders_by_table(query)
        for ioc, plan in result.ioc_plans.items():
            # Reference: the leaf orders, with uninteresting ones read as Phi.
            leaf_orders = {
                slot.table: slot.path.provided_order
                if slot.path.provided_order in orders[slot.table]
                else None
                for slot in plan.leaf_slots()
            }
            assert InterestingOrderCombination(leaf_orders) == ioc

    def test_best_plan_unchanged_by_hook(self, small_catalog, join_query):
        """Keeping extra plans must not change which plan is cheapest."""
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        paths = collector.collect(join_query)
        plain_best = min(p.total_cost for p in planner.plan(join_query, paths).candidates)
        hooked_best = min(
            p.total_cost for p in planner.plan(join_query, paths, self._hooked()).candidates
        )
        assert hooked_best == pytest.approx(plain_best, rel=1e-9)

    def test_subsumption_pruning_reduces_plan_count(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        small_catalog.add_index(Index("customers", ["c_region"]))
        small_catalog.add_index(Index("products", ["p_id"]))
        planner, collector = make_planner(small_catalog)
        paths = collector.collect(join_query)
        unpruned = planner.plan(join_query, paths, self._hooked(subsumption=False))
        pruned = planner.plan(join_query, paths, self._hooked(subsumption=True))
        assert len(pruned.ioc_plans) <= len(unpruned.ioc_plans)


class TestSubsumptionRule:
    def test_prunes_more_expensive_superset(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        planner, collector = make_planner(small_catalog)
        hooks = OptimizerHooks(keep_all_ioc_plans=True, subsumption_pruning=False)
        result = planner.plan(join_query, collector.collect(join_query), hooks)
        pruned = prune_subsumed_plans(result.ioc_plans)
        # Check the rule directly: no surviving plan is dominated.
        for ioc_b, plan_b in pruned.items():
            for ioc_a, plan_a in pruned.items():
                if ioc_a is ioc_b:
                    continue
                assert not (
                    ioc_a.is_subset_of(ioc_b) and plan_a.total_cost < plan_b.total_cost
                )

    def test_empty_ioc_never_pruned(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        hooks = OptimizerHooks(keep_all_ioc_plans=True, subsumption_pruning=True)
        result = planner.plan(join_query, collector.collect(join_query), hooks)
        assert any(ioc.order_count == 0 for ioc in result.ioc_plans)
