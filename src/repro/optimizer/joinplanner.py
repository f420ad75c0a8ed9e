"""The dynamic-programming Join Planner (Figure 2, fourth stage).

Given one query and the access paths collected for its tables, the planner
runs a System-R / PostgreSQL style bottom-up dynamic program over left-deep
join trees: level 1 holds the access paths of the individual tables, each
subsequent level joins one more table onto every plan of the previous level,
and only non-dominated plans per dynamic-programming state survive.

The state key is what distinguishes stock behaviour from PINUM behaviour:

* **Stock mode** keeps the cheapest plan per *output order* and discards any
  plan dominated by a cheaper plan with equal-or-stronger output order.  This
  is exactly why intermediate per-IOC plans are "collected during join
  optimization, only to be discarded at the final optimization level"
  (Section IV).
* **PINUM mode** (``hooks.keep_all_ioc_plans``) additionally keys the state
  by the interesting-order combination the plan's leaves provide, so the top
  level retains the best plan for every IOC.  The optional subsumption rule
  of Section V-D then removes IOCs that can never win: if plan A requires a
  subset of plan B's orders and is cheaper, B is dropped.

Every optimizer call plans through one :class:`PlanningContext`.  It holds
what the DP would otherwise re-derive from the query thousands of times --
each table's row width and filter columns, the interesting orders and the
cardinality of each joined table set -- so each fact is computed once per
call.  The context must never outlive its call: what-if overlays change the
visible indexes and catalog refreshes change the statistics between calls,
so a fact kept across calls would price the next call with stale inputs.

The DP never walks a plan tree.  A keep-all state keys each plan by
``(IOC, output order)``, so a join's IOC is built with the join, as the
union of its outer plan's IOC (read back from that plan's state key) and its
inner access path's; a state plan's table set is its state's subset.  The
one table keyed by plan nodes -- one explicit sort per (outer plan, sort
column) -- lives while one state is extended and keys on the plan objects,
which that state keeps alive, never on ``id()``, which freed plans recycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.optimizer.cost_model import CostModel
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import (
    InterestingOrderCombination,
    interesting_orders_by_table,
)
from repro.optimizer.plan import (
    AccessPath,
    HashJoinNode,
    MergeJoinNode,
    NestLoopJoinNode,
    PlanNode,
    ScanNode,
    SortNode,
)
from repro.optimizer.selectivity import SelectivityEstimator
from repro.query.ast import ColumnRef, JoinPredicate, Query
from repro.util.errors import PlanningError


class PlanningContext:
    """The query-derived facts of one optimizer call, each computed once."""

    def __init__(self, query: Query, selectivity: SelectivityEstimator) -> None:
        self.query = query
        #: Interesting-order columns per table.
        self.orders_by_table: Dict[str, List[str]] = interesting_orders_by_table(query)
        #: Columns each table's scan filters on.
        self.filter_columns: Dict[str, Tuple[str, ...]] = {
            table: tuple(p.column.column for p in query.filters_on(table))
            for table in query.tables
        }
        self._selectivity = selectivity
        self._widths: Dict[str, int] = {
            table: selectivity.table_row_width(query, table) for table in query.tables
        }
        self._join_rows: Dict[FrozenSet[str], float] = {}

    def join_rows(self, tables: FrozenSet[str]) -> float:
        """Estimated cardinality of joining ``tables`` (once per table set)."""
        rows = self._join_rows.get(tables)
        if rows is None:
            rows = self._selectivity.join_result_rows(self.query, tables)
            self._join_rows[tables] = rows
        return rows

    def row_width(self, tables: Iterable[str]) -> int:
        """Width in bytes of a joined row over ``tables``.

        Equal to :meth:`SelectivityEstimator.output_row_width`, which sums
        the same per-table widths.
        """
        return max(8, sum(self._widths[table] for table in tables))

    def path_ioc(self, path: AccessPath) -> InterestingOrderCombination:
        """The IOC of a plan reading ``path``: its order, if interesting, else Phi.

        A leaf may provide an order on a column that is not interesting for
        the query (e.g. a covering index chosen purely to avoid heap
        fetches); such an order can never be exploited by a merge join or the
        grouping planner, so for cache-keying purposes it is equivalent to
        the empty order Phi.  A join's IOC is the union of its inputs'.
        """
        order = path.provided_order
        if order not in self.orders_by_table[path.table]:
            order = None
        return InterestingOrderCombination({path.table: order})


@dataclass
class JoinPlannerResult:
    """Plans the join planner hands to the grouping planner."""

    #: Candidate top-level join plans (one per surviving DP state).
    candidates: List[PlanNode] = field(default_factory=list)
    #: Best join plan per interesting-order combination (PINUM mode only).
    ioc_plans: Dict[InterestingOrderCombination, PlanNode] = field(default_factory=dict)


class JoinPlanner:
    """Bottom-up DP join-order and join-method selection."""

    def __init__(
        self,
        cost_model: CostModel,
        selectivity: SelectivityEstimator,
        enable_nestloop: bool = True,
    ) -> None:
        self._cost_model = cost_model
        self._selectivity = selectivity
        self._enable_nestloop = enable_nestloop

    # -- public API -------------------------------------------------------------

    def plan(
        self,
        context: PlanningContext,
        access_paths: Dict[str, List[AccessPath]],
        hooks: Optional[OptimizerHooks] = None,
    ) -> JoinPlannerResult:
        """Run the DP and return the surviving top-level plans."""
        hooks = hooks or OptimizerHooks.disabled()
        keep_all = hooks.keep_all_ioc_plans
        query = context.query

        states: Dict[FrozenSet[str], Dict[Tuple, PlanNode]] = {}
        for table in query.tables:
            paths = access_paths.get(table)
            if not paths:
                raise PlanningError(f"no access paths collected for table {table!r}")
            subset = frozenset({table})
            state: Dict[Tuple, PlanNode] = {}
            for path in paths:
                scan = ScanNode(path, filter_columns=context.filter_columns[table])
                self._add_plan(state, scan, context.path_ioc(path) if keep_all else None)
            states[subset] = state

        # Left-deep DP: each level joins one more table onto the previous level.
        for level in range(1, query.table_count):
            next_states: Dict[FrozenSet[str], Dict[Tuple, PlanNode]] = {}
            for subset, state in states.items():
                if len(subset) != level:
                    continue
                # One explicit sort per (outer plan, sort column), shared by
                # every inner access path and joined table that needs it.
                outer_sorts: Dict[Tuple[PlanNode, ColumnRef], PlanNode] = {}
                outer_width = context.row_width(subset)
                for table in query.tables:
                    if table in subset:
                        continue
                    join_predicates = self._connecting_predicates(query, subset, table)
                    if not join_predicates:
                        continue
                    new_subset = subset | {table}
                    target = next_states.setdefault(new_subset, {})
                    output_rows = context.join_rows(new_subset)
                    join = join_predicates[0]
                    inner_column = join.column_for(table)
                    outer_column = join.other(table)
                    merge_order = frozenset({outer_column, inner_column})
                    inners = []
                    for path in access_paths[table]:
                        inner_scan, sorted_inner = self._inner_inputs(context, path, inner_column)
                        inners.append((path, inner_scan, sorted_inner, context.path_ioc(path)))
                    for left_key, left_plan in state.items():
                        sorted_outer = outer_sorts.get((left_plan, outer_column))
                        if sorted_outer is None:
                            sorted_outer = self._sorted_on(left_plan, outer_column, outer_width)
                            outer_sorts[(left_plan, outer_column)] = sorted_outer
                        for path, inner_scan, sorted_inner, inner_ioc in inners:
                            # Every join of this pair reads the same leaves.
                            ioc = (
                                InterestingOrderCombination.union((left_key[0], inner_ioc))
                                if keep_all
                                else None
                            )
                            plans = self._hash_join_plans(left_plan, inner_scan, join, output_rows)
                            plans.append(
                                self._merge_join_plan(
                                    left_plan, sorted_outer, inner_scan, sorted_inner,
                                    join, merge_order, output_rows,
                                )
                            )
                            if self._enable_nestloop:
                                nested = self._nested_loop_plan(
                                    context, left_plan, path, join, inner_column, output_rows
                                )
                                if nested is not None:
                                    plans.append(nested)
                            for plan in plans:
                                self._add_plan(target, plan, ioc)
            if keep_all and hooks.subsumption_pruning:
                # The paper's Section V-D point: applying the subsumption rule
                # *inside* the join planner keeps the per-IOC state small, so
                # the single hooked call stays cheap.
                for subset, state in next_states.items():
                    next_states[subset] = self._prune_state_subsumed(state)
            # Keep completed smaller subsets (they are no longer extended) out of
            # the working set to bound memory, but retain level-`level+1` states.
            states = {s: st for s, st in states.items() if len(s) != level}
            states.update(next_states)

        full = frozenset(query.tables)
        final_state = states.get(full)
        if not final_state:
            raise PlanningError(
                f"join planner produced no plan for query {query.name!r}; "
                "is the join graph connected?"
            )

        result = JoinPlannerResult(candidates=list(final_state.values()))
        if keep_all:
            result.ioc_plans = self._collapse_per_ioc(final_state)
            if hooks.subsumption_pruning:
                result.ioc_plans = prune_subsumed_plans(result.ioc_plans)
        return result

    # -- DP bookkeeping ------------------------------------------------------------

    @staticmethod
    def _add_plan(
        state: Dict[Tuple, PlanNode],
        plan: PlanNode,
        ioc: Optional[InterestingOrderCombination],
    ) -> None:
        """PostgreSQL's ``add_path``: insert ``plan`` unless dominated.

        ``ioc`` is the plan's combination in keep-all mode, where the state
        key is ``(ioc, output order)``, and ``None`` in stock mode.
        """
        if ioc is not None:
            key = (ioc, plan.output_order)
            incumbent = state.get(key)
            if incumbent is None or plan.total_cost < incumbent.total_cost:
                state[key] = plan
            return

        # Stock mode: dominance pruning across output orders.
        for key, incumbent in list(state.items()):
            if (
                incumbent.total_cost <= plan.total_cost
                and incumbent.output_order >= plan.output_order
            ):
                return  # dominated: a cheaper plan provides at least the same order
            if (
                plan.total_cost <= incumbent.total_cost
                and plan.output_order >= incumbent.output_order
            ):
                del state[key]
        state[(plan.output_order,)] = plan

    @staticmethod
    def _prune_state_subsumed(state: Dict[Tuple, PlanNode]) -> Dict[Tuple, PlanNode]:
        """Apply the Section V-D rule to one DP state (keep-all mode only).

        Within each interesting-order combination only plans that are not
        dominated by a cheaper plan with an equal-or-stronger output order
        survive; across combinations, a combination whose cheapest plan is
        beaten by a cheaper plan requiring a *subset* of its orders is
        dropped entirely.
        """
        # Group the state's plans by the IOC of their leaves.
        by_ioc: Dict[InterestingOrderCombination, List[Tuple[Tuple, PlanNode]]] = {}
        for key, plan in state.items():
            by_ioc.setdefault(key[0], []).append((key, plan))

        cheapest: Dict[InterestingOrderCombination, float] = {
            ioc: min(plan.total_cost for _, plan in plans) for ioc, plans in by_ioc.items()
        }
        pruned: Dict[Tuple, PlanNode] = {}
        for ioc, plans in by_ioc.items():
            subsumed = any(
                cost < cheapest[ioc] and other.is_subset_of(ioc)
                for other, cost in cheapest.items()
                if other != ioc
            )
            if subsumed:
                continue
            for key, plan in plans:
                dominated = any(
                    other_plan is not plan
                    and other_plan.output_order >= plan.output_order
                    and (
                        other_plan.total_cost < plan.total_cost
                        or (
                            other_plan.total_cost == plan.total_cost
                            and other_plan.output_order > plan.output_order
                        )
                    )
                    for _, other_plan in plans
                )
                if not dominated:
                    pruned[key] = plan
        return pruned

    @staticmethod
    def _collapse_per_ioc(
        state: Dict[Tuple, PlanNode],
    ) -> Dict[InterestingOrderCombination, PlanNode]:
        """Cheapest plan per interesting-order combination at the top level."""
        best: Dict[InterestingOrderCombination, PlanNode] = {}
        for (ioc, _), plan in state.items():
            incumbent = best.get(ioc)
            if incumbent is None or plan.total_cost < incumbent.total_cost:
                best[ioc] = plan
        return best

    # -- join construction ------------------------------------------------------------

    @staticmethod
    def _connecting_predicates(
        query: Query, subset: FrozenSet[str], table: str
    ) -> List[JoinPredicate]:
        """Join predicates linking ``table`` to any member of ``subset``."""
        predicates = []
        for join in query.joins_involving(table):
            other = next(iter(join.tables - {table}))
            if other in subset:
                predicates.append(join)
        return predicates

    def _sorted_on(self, plan: PlanNode, column: ColumnRef, width: int) -> PlanNode:
        """``plan`` itself if its output is ordered on ``column``, else a sort of it.

        ``width`` is the byte width of ``plan``'s rows.
        """
        if column in plan.output_order:
            return plan
        sort_cost = self._cost_model.sort(plan.total_cost, plan.rows, width)
        return SortNode(plan, (column,), sort_cost)

    def _inner_inputs(
        self, context: PlanningContext, path: AccessPath, inner_column: ColumnRef
    ) -> Tuple[ScanNode, PlanNode]:
        """The inner scan of ``path`` and its merge-join input (sorted if needed).

        Neither depends on the outer plan, so one pair serves every outer.
        """
        inner_scan = ScanNode(path, filter_columns=context.filter_columns[path.table])
        if path.provided_order == inner_column.column:
            return inner_scan, inner_scan
        width = context.row_width((inner_column.table,))
        sort_cost = self._cost_model.sort(inner_scan.total_cost, inner_scan.rows, width)
        return inner_scan, SortNode(inner_scan, (inner_column,), sort_cost)

    def _hash_join_plans(
        self,
        outer: PlanNode,
        inner_scan: ScanNode,
        join: JoinPredicate,
        output_rows: float,
    ) -> List[PlanNode]:
        """Hash joins with the build side on either input."""
        cost_build_inner = self._cost_model.hash_join(
            outer_cost=outer.total_cost,
            inner_cost=inner_scan.total_cost,
            outer_rows=outer.rows,
            inner_rows=inner_scan.rows,
            output_rows=output_rows,
        )
        cost_build_outer = self._cost_model.hash_join(
            outer_cost=inner_scan.total_cost,
            inner_cost=outer.total_cost,
            outer_rows=inner_scan.rows,
            inner_rows=outer.rows,
            output_rows=output_rows,
        )
        plans: List[PlanNode] = [
            HashJoinNode(outer, inner_scan, join, cost_build_inner, output_rows, frozenset()),
        ]
        if cost_build_outer < cost_build_inner:
            plans.append(
                HashJoinNode(inner_scan, outer, join, cost_build_outer, output_rows, frozenset())
            )
        return plans

    def _merge_join_plan(
        self,
        outer: PlanNode,
        sorted_outer: PlanNode,
        inner_scan: ScanNode,
        sorted_inner: PlanNode,
        join: JoinPredicate,
        output_order: FrozenSet[ColumnRef],
        output_rows: float,
    ) -> PlanNode:
        """Merge join of the two inputs, each already sorted on its join key."""
        cost = self._cost_model.merge_join(
            outer_cost_sorted=sorted_outer.total_cost,
            inner_cost_sorted=sorted_inner.total_cost,
            outer_rows=outer.rows,
            inner_rows=inner_scan.rows,
            output_rows=output_rows,
        )
        return MergeJoinNode(sorted_outer, sorted_inner, join, cost, output_rows, output_order)

    def _nested_loop_plan(
        self,
        context: PlanningContext,
        outer: PlanNode,
        path: AccessPath,
        join: JoinPredicate,
        inner_column: ColumnRef,
        output_rows: float,
    ) -> Optional[PlanNode]:
        """Parameterized nested-loop join (index probe on the join column)."""
        if not path.supports_probe or path.index is None:
            return None
        if path.index.leading_column != inner_column.column:
            return None
        inner = ScanNode(
            path,
            multiplier=max(1.0, outer.rows),
            parameterized=True,
            filter_columns=context.filter_columns[inner_column.table],
        )
        cost = self._cost_model.nested_loop_join(
            outer_cost=outer.total_cost,
            outer_rows=outer.rows,
            inner_rescan_cost=path.rescan_cost or 0.0,
            output_rows=output_rows,
        )
        # A nested loop preserves the outer input's ordering.
        return NestLoopJoinNode(outer, inner, join, cost, output_rows, outer.output_order)


# -- helpers shared with PINUM ----------------------------------------------------------


def prune_subsumed_plans(
    plans: Dict[InterestingOrderCombination, PlanNode]
) -> Dict[InterestingOrderCombination, PlanNode]:
    """Apply the paper's Section V-D pruning rule to a per-IOC plan set.

    If plan A requires interesting-order set S_A, plan B requires S_B,
    S_A is a subset of S_B and A costs less, then for *any* configuration
    covering S_B plan A would also be applicable and cheaper, so B can never
    be the winner and is removed.
    """
    kept: Dict[InterestingOrderCombination, PlanNode] = {}
    items = list(plans.items())
    for ioc_b, plan_b in items:
        subsumed = False
        for ioc_a, plan_a in items:
            if ioc_a is ioc_b:
                continue
            if ioc_a.is_subset_of(ioc_b) and plan_a.total_cost < plan_b.total_cost:
                subsumed = True
                break
        if not subsumed:
            kept[ioc_b] = plan_b
    return kept
