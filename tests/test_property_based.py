"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import Histogram
from repro.inum.access_costs import AccessCostInfo
from repro.inum.atomic_config import AtomicConfiguration
from repro.inum.cache import CachedSlot, CacheEntry, InumCache
from repro.inum.arena import compile_arena
from repro.inum.compiled import compile_cache, numpy_available
from repro.inum.cost_estimation import InumCostModel
from repro.catalog.index import Index
from repro.optimizer.cost_model import CostModel
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.joinplanner import prune_subsumed_plans
from repro.optimizer.plan import AccessPath, HashJoinNode, ScanNode
from repro.pinum.cost_model import PinumCostModel
from repro.query.ast import ColumnRef, JoinPredicate
from repro.storage import pages
from repro.util.errors import PlanningError

_settings = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)

#: Both arena backends when numpy is installed, the pure-Python one otherwise.
_BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


# ---------------------------------------------------------------------------
# Storage layout arithmetic
# ---------------------------------------------------------------------------


class TestPageArithmeticProperties:
    @_settings
    @given(width=st.integers(min_value=0, max_value=10_000),
           alignment=st.sampled_from([1, 2, 4, 8]))
    def test_alignment_properties(self, width, alignment):
        aligned = pages.align_to(width, alignment)
        assert aligned >= width
        assert aligned % alignment == 0
        assert aligned - width < alignment

    @_settings
    @given(rows=st.integers(min_value=0, max_value=10_000_000),
           width=st.integers(min_value=8, max_value=2_000))
    def test_heap_pages_monotone_in_rows(self, rows, width):
        assert pages.heap_pages(rows + 1000, width) >= pages.heap_pages(rows, width)
        assert pages.heap_pages(rows, width) >= 1

    @_settings
    @given(rows=st.integers(min_value=1, max_value=10_000_000),
           width=st.integers(min_value=8, max_value=500))
    def test_internal_pages_never_dominate(self, rows, width):
        leaves = pages.btree_leaf_pages(rows, width)
        internal = pages.btree_internal_pages(leaves, width)
        assert internal <= leaves


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


class TestHistogramProperties:
    @_settings
    @given(
        low=st.integers(min_value=0, max_value=1000),
        span=st.integers(min_value=0, max_value=100_000),
        rows=st.integers(min_value=1, max_value=1_000_000),
        probe=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_selectivity_below_is_bounded_and_monotone(self, low, span, rows, probe):
        histogram = Histogram.uniform(low, low + span, rows)
        value = histogram.selectivity_below(probe)
        assert 0.0 <= value <= 1.0
        assert histogram.selectivity_below(probe + 10) >= value - 1e-9

    @_settings
    @given(
        values=st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=1, max_size=200),
    )
    def test_from_values_total_and_full_range(self, values):
        histogram = Histogram.from_values(values)
        assert histogram.total == len(values)
        assert histogram.selectivity_between(min(values), max(values)) == pytest.approx(1.0, abs=1e-6)

    @_settings
    @given(
        low=st.integers(min_value=0, max_value=100),
        span=st.integers(min_value=1, max_value=10_000),
        rows=st.integers(min_value=1, max_value=100_000),
        a=st.floats(min_value=0, max_value=1),
        b=st.floats(min_value=0, max_value=1),
    )
    def test_range_selectivity_additive(self, low, span, rows, a, b):
        """sel[lo, m] + sel(m, hi] ~ sel[lo, hi] for any split point."""
        histogram = Histogram.uniform(low, low + span, rows)
        lo, hi = low, low + span
        split = lo + (hi - lo) * min(a, b)
        left = histogram.selectivity_between(lo, split)
        whole = histogram.selectivity_between(lo, hi)
        assert left <= whole + 1e-9


# ---------------------------------------------------------------------------
# Interesting-order combinations and atomic configurations
# ---------------------------------------------------------------------------


_tables = ["t1", "t2", "t3", "t4"]
_orders = ["a", "b", None]


def ioc_strategy():
    return st.fixed_dictionaries({t: st.sampled_from(_orders) for t in _tables}).map(
        InterestingOrderCombination
    )


class TestIocProperties:
    @_settings
    @given(ioc=ioc_strategy())
    def test_subset_reflexive(self, ioc):
        assert ioc.is_subset_of(ioc)

    @_settings
    @given(a=ioc_strategy(), b=ioc_strategy(), c=ioc_strategy())
    def test_subset_transitive(self, a, b, c):
        if a.is_subset_of(b) and b.is_subset_of(c):
            assert a.is_subset_of(c)

    @_settings
    @given(a=ioc_strategy(), b=ioc_strategy())
    def test_equality_consistent_with_hash(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    @_settings
    @given(ioc=ioc_strategy())
    def test_covering_configuration_covers(self, ioc):
        indexes = [Index(table, [order]) for table, order in ioc.non_empty_orders]
        assert AtomicConfiguration(indexes).covers(ioc)

    @_settings
    @given(ioc=ioc_strategy())
    def test_empty_configuration_covers_only_empty(self, ioc):
        empty = AtomicConfiguration([])
        assert empty.covers(ioc) == (ioc.order_count == 0)


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


class TestCostModelProperties:
    @_settings
    @given(
        pages_=st.integers(min_value=1, max_value=1_000_000),
        rows=st.floats(min_value=1, max_value=1e8),
        sel_a=st.floats(min_value=0.0, max_value=1.0),
        sel_b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_index_scan_monotone_in_selectivity(self, pages_, rows, sel_a, sel_b):
        model = CostModel()
        low, high = sorted([sel_a, sel_b])
        cheap = model.index_scan(pages_ // 10 + 1, pages_, rows, low)
        pricey = model.index_scan(pages_ // 10 + 1, pages_, rows, high)
        assert cheap <= pricey + 1e-6

    @_settings
    @given(
        rows_a=st.floats(min_value=1, max_value=1e7),
        rows_b=st.floats(min_value=1, max_value=1e7),
        width=st.integers(min_value=8, max_value=512),
    )
    def test_sort_monotone_in_rows(self, rows_a, rows_b, width):
        model = CostModel()
        low, high = sorted([rows_a, rows_b])
        assert model.sort(0.0, low, width) <= model.sort(0.0, high, width) + 1e-6

    @_settings
    @given(costs=st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=2),
           rows=st.floats(min_value=1, max_value=1e6))
    def test_joins_cost_at_least_inputs(self, costs, rows):
        model = CostModel()
        outer_cost, inner_cost = costs
        assert model.hash_join(outer_cost, inner_cost, rows, rows, rows) >= outer_cost + inner_cost
        assert model.merge_join(outer_cost, inner_cost, rows, rows, rows) >= outer_cost + inner_cost


# ---------------------------------------------------------------------------
# Compiled cache evaluation vs the scalar INUM arithmetic
# ---------------------------------------------------------------------------


class _StubQuery:
    """The minimal query surface an :class:`InumCache` needs (name + tables)."""

    def __init__(self, tables):
        self.name = "synthetic"
        self.tables = list(tables)


_cache_tables = ["alpha", "beta", "gamma"]
_cache_orders = [None, "k1", "k2"]
_cost = st.floats(min_value=0.1, max_value=1e6, allow_nan=False, allow_infinity=False)
_maybe_cost = st.one_of(st.none(), _cost)


@st.composite
def cache_with_indexes(draw):
    """A randomized plan cache plus the candidate indexes its costs cover."""
    tables = draw(st.lists(st.sampled_from(_cache_tables), min_size=1, max_size=3, unique=True))
    cache = InumCache(_StubQuery(tables))
    indexes = []
    for table in tables:
        # A stray provided_order on a heap record (possible in hand-built or
        # deserialized caches) must not make it satisfy ordered slots.
        cache.access_costs.add(
            AccessCostInfo(
                table=table,
                index_key=None,
                full_cost=draw(_cost),
                probe_cost=draw(_maybe_cost),
                provided_order=draw(st.sampled_from(_cache_orders)),
            )
        )
        for number in range(draw(st.integers(min_value=0, max_value=3))):
            index = Index(table, [f"col{number}"])
            cache.access_costs.add(
                AccessCostInfo(
                    table=table,
                    index_key=index.key,
                    full_cost=draw(_cost),
                    probe_cost=draw(_maybe_cost),
                    provided_order=draw(st.sampled_from(_cache_orders)),
                )
            )
            indexes.append(index)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        slots = []
        ioc_orders = {}
        for table in tables:
            ioc_orders[table] = draw(st.sampled_from(_cache_orders))
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                parameterized = draw(st.booleans())
                slots.append(
                    CachedSlot(
                        table=table,
                        required_order=draw(st.sampled_from(_cache_orders)),
                        multiplier=(
                            draw(st.floats(min_value=0.5, max_value=100.0))
                            if parameterized
                            else 1.0
                        ),
                        parameterized=parameterized,
                    )
                )
        cache.add_entry(
            CacheEntry(
                ioc=InterestingOrderCombination(ioc_orders),
                internal_cost=draw(_cost),
                slots=tuple(slots),
                uses_nestloop=draw(st.booleans()),
            )
        )
    subset = draw(
        st.lists(st.sampled_from(indexes), unique_by=lambda index: index.key, max_size=6)
        if indexes
        else st.just([])
    )
    if draw(st.booleans()):  # an index the cache never collected costs for
        subset = subset + [Index(tables[0], ["uncollected"])]
    return cache, subset


def layout_entry_costs(layout, indexes):
    """Per-entry costs straight from the layout's coefficients (+inf = infeasible)."""
    active = set(layout.active_columns(indexes))
    inf = float("inf")
    full = [min((row[c] for c in active), default=inf) for row in layout.full_costs]
    probe = [min((row[c] for c in active), default=inf) for row in layout.probe_costs]
    costs = []
    for internal, full_weight, probe_weight in zip(
        layout.internal_costs, layout.full_weights, layout.probe_weights
    ):
        cost = internal
        cost += sum(weight * full[position] for position, weight in full_weight.items())
        cost += sum(weight * probe[position] for position, weight in probe_weight.items())
        costs.append(cost)
    return costs


def _arena(cache, backend):
    """A one-statement workload arena over ``cache``."""
    return compile_arena([cache.query], {cache.query.name: cache}, backend=backend)


class TestCompiledEngineProperties:
    @_settings
    @given(data=cache_with_indexes())
    def test_backends_match_scalar_model_exactly(self, data):
        """Every arena backend reproduces the scalar cost, and the compiled
        layout's cheapest entry is the scalar winner (or an exact tie)."""
        cache, subset = data
        scalar = InumCostModel(cache)
        try:
            expected_cost, expected_entry = scalar.estimate_with_indexes_detail(subset)
        except PlanningError:
            expected_cost = expected_entry = None
        for backend in _BACKENDS:
            arena = _arena(cache, backend)
            if expected_cost is None:
                with pytest.raises(PlanningError):
                    arena.evaluate(subset)
                continue
            assert arena.evaluate(subset) == pytest.approx(expected_cost, rel=1e-9, abs=1e-9)
        if expected_cost is not None:
            costs = layout_entry_costs(compile_cache(cache), subset)
            assert costs[cache.entries.index(expected_entry)] == pytest.approx(
                min(costs), rel=1e-9, abs=1e-9
            )

    @_settings
    @given(data=cache_with_indexes())
    def test_pinum_model_and_batch_agree(self, data):
        """PINUM's model (same arithmetic) and batched evaluation also match."""
        cache, subset = data
        pinum = PinumCostModel(cache)
        for backend in _BACKENDS:
            arena = _arena(cache, backend)
            try:
                expected = pinum.estimate_with_indexes(subset)
            except PlanningError:
                continue
            assert arena.evaluate(subset) == pytest.approx(expected, rel=1e-9, abs=1e-9)
            batch = arena.evaluate_batch([subset, subset])
            assert batch[0] == batch[1]
            assert batch[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Plan decomposition and subsumption pruning
# ---------------------------------------------------------------------------


def _plan_with_costs(seq_cost: float, idx_cost: float, join_cost_extra: float):
    outer = ScanNode(AccessPath(table="t1", method="seqscan", cost=seq_cost, rows=100, covering=True))
    inner = ScanNode(
        AccessPath(
            table="t2", method="indexscan", cost=idx_cost, rows=100,
            index=Index("t2", ["a"]), provided_order="a",
        )
    )
    join = JoinPredicate(ColumnRef("t1", "x"), ColumnRef("t2", "a"))
    total = seq_cost + idx_cost + join_cost_extra
    return HashJoinNode(outer, inner, join, total, 100)


class TestPlanProperties:
    @_settings
    @given(
        seq_cost=st.floats(min_value=0, max_value=1e6),
        idx_cost=st.floats(min_value=0, max_value=1e6),
        extra=st.floats(min_value=0, max_value=1e6),
    )
    def test_internal_plus_access_equals_total(self, seq_cost, idx_cost, extra):
        plan = _plan_with_costs(seq_cost, idx_cost, extra)
        assert plan.internal_cost() + plan.access_cost() == pytest.approx(plan.total_cost, rel=1e-9, abs=1e-6)

    @_settings
    @given(data=st.data())
    def test_pruning_keeps_cheapest_and_empty_ioc(self, data):
        """Pruned sets always retain a plan at least as cheap as every pruned one."""
        n = data.draw(st.integers(min_value=1, max_value=6))
        plans = {}
        for i in range(n):
            order = data.draw(st.sampled_from(["a", "b", None]), label=f"order{i}")
            cost = data.draw(st.floats(min_value=1, max_value=1e6), label=f"cost{i}")
            outer = ScanNode(AccessPath(table="t1", method="seqscan", cost=cost / 2, rows=10, covering=True))
            inner_path = (
                AccessPath(table="t2", method="seqscan", cost=cost / 2, rows=10, covering=True)
                if order is None
                else AccessPath(table="t2", method="indexscan", cost=cost / 2, rows=10,
                                index=Index("t2", [order]), provided_order=order)
            )
            inner = ScanNode(inner_path)
            join = JoinPredicate(ColumnRef("t1", "x"), ColumnRef("t2", order or "y"))
            plan = HashJoinNode(outer, inner, join, cost, 10)
            ioc = InterestingOrderCombination({"t1": None, "t2": order})
            incumbent = plans.get(ioc)
            if incumbent is None or plan.total_cost < incumbent.total_cost:
                plans[ioc] = plan
        pruned = prune_subsumed_plans(plans)
        assert pruned  # never empties the set
        cheapest_overall = min(p.total_cost for p in plans.values())
        assert min(p.total_cost for p in pruned.values()) == pytest.approx(cheapest_overall)
        # Every surviving plan is not subsumed by another survivor.
        for ioc_b, plan_b in pruned.items():
            for ioc_a, plan_a in pruned.items():
                if ioc_a is ioc_b:
                    continue
                assert not (ioc_a.is_subset_of(ioc_b) and plan_a.total_cost < plan_b.total_cost)
