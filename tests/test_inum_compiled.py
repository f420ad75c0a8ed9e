"""Tests for compiled cache layouts and their evaluation through the arena.

:func:`compile_cache` digests one plan cache into a dense layout; the
workload arena is the only evaluator of layouts, so a one-statement arena
over each cache is checked against the scalar model here, per arena backend.
"""

import pytest

from repro.catalog.index import Index
from repro.inum import InumCacheBuilder, InumCostModel, compile_cache, numpy_available
from repro.inum import compiled as compiled_module
from repro.inum.arena import compile_arena
from repro.inum.compiled import IndexSetMemo
from repro.optimizer import Optimizer
from repro.pinum import PinumCacheBuilder
from repro.util.errors import PlanningError

from test_property_based import layout_entry_costs


@pytest.fixture
def candidates():
    return [
        Index("sales", ["s_customer"]),
        Index("sales", ["s_product"]),
        Index("sales", ["s_customer", "s_amount", "s_product"]),
        Index("customers", ["c_id"]),
        Index("customers", ["c_region", "c_id"]),
        Index("products", ["p_id"]),
        Index("products", ["p_category", "p_id", "p_price"]),
    ]


@pytest.fixture
def cache(small_catalog, join_query, candidates):
    return InumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)


def _backends():
    backends = ["python"]
    if numpy_available():
        backends.append("numpy")
    return backends


def _single_arena(cache, backend="auto"):
    """A one-statement arena over ``cache``."""
    return compile_arena([cache.query], {cache.query.name: cache}, backend=backend)


class TestBackendSelection:
    def test_auto_prefers_numpy_when_available(self, cache):
        expected = "numpy" if numpy_available() else "python"
        assert _single_arena(cache, backend="auto").backend == expected

    def test_python_backend_forced(self, cache):
        assert _single_arena(cache, backend="python").backend == "python"

    def test_unknown_backend_rejected(self, cache):
        with pytest.raises(PlanningError):
            _single_arena(cache, backend="fortran")

    def test_auto_degrades_without_numpy(self, cache, monkeypatch):
        monkeypatch.setattr(compiled_module, "_np", None)
        assert not compiled_module.numpy_available()
        assert _single_arena(cache, backend="auto").backend == "python"

    def test_numpy_backend_requires_numpy(self, cache, monkeypatch):
        from repro.inum import arena as arena_module

        monkeypatch.setattr(arena_module, "_np", None)
        with pytest.raises(PlanningError):
            _single_arena(cache, backend="numpy")


class TestAgainstScalarModel:
    @pytest.mark.parametrize("backend", _backends())
    def test_matches_scalar_on_subsets(self, cache, candidates, backend):
        scalar = InumCostModel(cache)
        arena = _single_arena(cache, backend)
        subsets = [
            [],
            candidates[:1],
            candidates[:3],
            candidates,
            [candidates[4], candidates[0], candidates[6]],
        ]
        for subset in subsets:
            expected = scalar.estimate_with_indexes(subset)
            assert arena.query_cost(cache.query.name, subset) == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )
            assert arena.evaluate(subset) == arena.query_cost(cache.query.name, subset)

    @pytest.mark.parametrize("backend", _backends())
    def test_matches_pinum_cache_too(self, small_catalog, join_query, candidates, backend):
        cache = PinumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)
        scalar = InumCostModel(cache)
        arena = _single_arena(cache, backend)
        for subset in ([], candidates[:2], candidates):
            assert arena.evaluate(subset) == pytest.approx(
                scalar.estimate_with_indexes(subset), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("backend", _backends())
    def test_unknown_indexes_ignored(self, cache, backend):
        arena = _single_arena(cache, backend)
        stranger = Index("sales", ["s_quantity", "s_amount"])
        assert arena.evaluate([stranger]) == arena.evaluate([])

    @pytest.mark.parametrize("backend", _backends())
    def test_batch_matches_single_evaluations(self, cache, candidates, backend):
        arena = _single_arena(cache, backend)
        sets = [[], candidates[:1], candidates[:4], candidates]
        batch = arena.evaluate_batch(sets)
        assert batch == pytest.approx([arena.evaluate(s) for s in sets], rel=1e-12)
        assert arena.evaluate_batch([]) == []

    @pytest.mark.parametrize("backend", _backends())
    def test_entry_costs_consistent_with_detail(self, cache, candidates, backend):
        """The layout's cheapest entry is the scalar model's winning entry,
        and its cost is what the arena answers."""
        layout = compile_cache(cache)
        costs = layout_entry_costs(layout, candidates)
        expected_cost, expected_entry = InumCostModel(cache).estimate_with_indexes_detail(
            candidates
        )
        assert len(costs) == cache.entry_count
        assert min(costs) == pytest.approx(expected_cost, rel=1e-9, abs=1e-9)
        assert cache.entries[costs.index(min(costs))] is expected_entry
        assert _single_arena(cache, backend).evaluate(candidates) == pytest.approx(
            min(costs), rel=1e-9, abs=1e-9
        )


class TestLayout:
    def test_heaps_are_always_active(self, cache, candidates):
        layout = compile_cache(cache)
        assert layout.heap_columns
        for position in layout.heap_columns:
            assert layout.methods[position].index_key is None
        assert set(layout.heap_columns) <= set(layout.active_columns([]))
        assert len(layout.active_columns(candidates)) > len(layout.active_columns([]))

    def test_one_weight_row_per_entry(self, cache):
        layout = compile_cache(cache)
        assert len(layout.internal_costs) == cache.entry_count
        assert len(layout.full_weights) == len(layout.probe_weights) == cache.entry_count
        assert len(layout.full_costs) == len(layout.probe_costs) == len(layout.classes)
        for row in layout.full_costs:
            assert len(row) == len(layout.methods)


class TestIndexSetMemo:
    def test_builds_once_per_signature(self):
        calls = []

        def build(indexes):
            calls.append(list(indexes))
            return len(indexes)

        memo = IndexSetMemo(build)
        a, b = Index("sales", ["s_customer"]), Index("sales", ["s_product"])
        assert memo.get([a, b]) == 2
        # Same set in a different order (and as distinct objects) hits.
        assert memo.get([Index("sales", ["s_product"]), Index("sales", ["s_customer"])]) == 2
        assert len(calls) == 1
        assert memo.get([a]) == 1
        assert len(calls) == 2

    def test_overflow_clears_instead_of_growing(self):
        memo = IndexSetMemo(lambda indexes: len(indexes), max_entries=2)
        for table in ("sales", "customers", "products"):
            memo.get([Index(table, ["column"])])
        assert len(memo) <= 2
