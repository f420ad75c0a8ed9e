"""Cross-engine equivalence of maintenance-cost evaluation.

The same mixed read/write workload must price identically (within 1e-9)
whether it is evaluated by the workload arena (numpy or pure-Python
backend) or the original scalar walk -- otherwise `--engine` would change
recommendations.  Randomized in two tiers: hypothesis-generated
synthetic caches with maintenance profiles (fast, adversarial shapes) and
real caches built for randomized DML statements over the small catalog.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.advisor.candidates import CandidateGenerator
from repro.catalog.index import Index
from repro.inum.access_costs import AccessCostInfo
from repro.inum.cache import CachedSlot, CacheEntry, InumCache
from repro.inum.arena import compile_arena
from repro.inum.compiled import numpy_available
from repro.inum.cost_estimation import InumCostModel
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.maintenance import MaintenanceProfile
from repro.optimizer.optimizer import Optimizer
from repro.query.ast import ColumnRef, Comparison, DmlKind, DmlStatement, Predicate

from conftest import build_join_query, build_simple_query, build_small_catalog
from test_golden_recommend import engine_variant

_settings = settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None)

_cost = st.floats(min_value=0.1, max_value=1e6, allow_nan=False, allow_infinity=False)


class _StubStatement:
    """Minimal statement surface an :class:`InumCache` needs."""

    def __init__(self, tables):
        self.name = "synthetic_dml"
        self.tables = list(tables)


@st.composite
def maintenance_caches(draw):
    """A synthetic single-table cache with a maintenance profile, plus indexes."""
    table = "alpha"
    cache = InumCache(_StubStatement([table]))
    cache.access_costs.add(AccessCostInfo(
        table=table, index_key=None,
        full_cost=draw(_cost), probe_cost=draw(st.one_of(st.none(), _cost)),
    ))
    indexes = []
    for number in range(draw(st.integers(min_value=0, max_value=5))):
        index = Index(table, [f"col{number}"])
        indexes.append(index)
        if draw(st.booleans()):  # some candidates never get read columns
            cache.access_costs.add(AccessCostInfo(
                table=table, index_key=index.key,
                full_cost=draw(_cost), probe_cost=draw(st.one_of(st.none(), _cost)),
                provided_order=draw(st.sampled_from([None, f"col{number}"])),
            ))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slot_count = draw(st.integers(min_value=0, max_value=2))
        cache.add_entry(CacheEntry(
            ioc=InterestingOrderCombination({table: None}),
            internal_cost=draw(_cost),
            slots=tuple(
                CachedSlot(table=table, required_order=None)
                for _ in range(slot_count)
            ),
        ))
    per_index = {
        index.key: draw(_cost)
        for index in indexes
        if draw(st.booleans())
    }
    cache.maintenance = MaintenanceProfile(
        statement="synthetic_dml",
        base_cost=draw(st.floats(min_value=0.0, max_value=1e5)),
        per_index=per_index,
    )
    subset = draw(st.lists(
        st.sampled_from(indexes), unique_by=lambda index: index.key, max_size=5,
    ) if indexes else st.just([]))
    return cache, subset


_BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def _arena(cache, backend):
    """A one-statement arena over ``cache``."""
    return compile_arena([cache.query], {cache.query.name: cache}, backend=backend)


class TestSyntheticCacheEquivalence:
    @_settings
    @given(data=maintenance_caches())
    def test_backends_agree_with_scalar_within_1e9(self, data):
        cache, subset = data
        scalar = InumCostModel(cache)
        expected = scalar.estimate_with_indexes(subset)
        profile = cache.maintenance
        # The scalar estimate decomposes: read minimum plus maintenance.
        assert expected >= profile.cost_for(subset) - 1e-9
        for backend in _BACKENDS:
            arena = _arena(cache, backend)
            assert arena.evaluate(subset) == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert arena.maintenance_vector(subset)[0] == pytest.approx(
                profile.cost_for(subset), rel=1e-12, abs=1e-12
            )
            batch = arena.evaluate_batch([subset, []])
            assert batch[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert batch[1] == pytest.approx(
                scalar.estimate_with_indexes([]), rel=1e-9, abs=1e-9
            )

    @_settings
    @given(data=maintenance_caches())
    def test_entry_costs_carry_the_same_maintenance_constant(self, data):
        """Every backend adds the profile's charge on top of the same read
        minimum the scalar walk finds without a profile."""
        cache, subset = data
        read_only = cache.detached_copy()
        read_only.maintenance = None
        read = InumCostModel(read_only).estimate_with_indexes(subset)
        charge = cache.maintenance.cost_for(subset)
        for backend in _BACKENDS:
            assert _arena(cache, backend).per_query_vector(subset)[0] == pytest.approx(
                read + charge, rel=1e-9, abs=1e-9
            )


def _random_dml(rng: random.Random, number: int) -> DmlStatement:
    kind = rng.choice([DmlKind.INSERT, DmlKind.UPDATE, DmlKind.DELETE])
    columns = ["s_amount", "s_quantity", "s_customer", "s_product"]
    name = f"rand_w{number}"
    if kind is DmlKind.INSERT:
        picked = rng.sample(columns, rng.randint(1, 3))
        return DmlStatement(
            name=name, kind=kind, table="sales", columns=tuple(picked),
            values=tuple(
                tuple(float(rng.randint(1, 10_000)) for _ in picked)
                for _ in range(rng.randint(1, 3))
            ),
        )
    low = float(rng.randint(1, 400_000))
    predicate = Predicate(
        ColumnRef("sales", rng.choice(columns)), Comparison.BETWEEN,
        low, low + float(rng.randint(1, 50_000)),
    )
    if kind is DmlKind.DELETE:
        return DmlStatement(name=name, kind=kind, table="sales", filters=(predicate,))
    set_column = rng.choice(columns)
    return DmlStatement(
        name=name, kind=kind, table="sales", columns=(set_column,),
        set_values=(float(rng.randint(1, 10_000)),), filters=(predicate,),
    )


class TestRealWorkloadEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engines_agree_on_randomized_mixed_workloads(self, seed):
        rng = random.Random(seed)
        catalog = build_small_catalog()
        statements = [build_join_query("q_join"), build_simple_query("q_scan")]
        statements += [_random_dml(rng, number) for number in range(1, 4)]
        pool = CandidateGenerator(catalog).for_workload(statements)
        weights = {stmt.name: float(rng.randint(1, 20)) for stmt in statements}
        model = CacheBackedWorkloadCostModel(
            Optimizer(catalog), statements, pool, weights=weights
        )
        subsets = [[]] + [
            rng.sample(pool, rng.randint(1, min(5, len(pool))))
            for _ in range(6)
        ]
        reference = None
        for engine in ["scalar"] + _BACKENDS:
            with engine_variant(engine) as option:
                model.select_engine(option)
                measured = [
                    (model.workload_cost(subset), model.per_query_costs(subset))
                    for subset in subsets
                ]
            if reference is None:
                reference = measured
                continue
            for (total, per_query), (expected_total, expected_per_query) in zip(
                measured, reference
            ):
                assert total == pytest.approx(expected_total, rel=1e-9, abs=1e-9)
                for name, cost in per_query.items():
                    assert cost == pytest.approx(
                        expected_per_query[name], rel=1e-9, abs=1e-9
                    )
