"""Golden end-to-end regression test: the fig-7 recommendation is pinned.

The star-schema workload (seed 7, ten queries, 5 GB budget, 60 candidates)
must keep producing *exactly* this recommendation -- chosen indexes, costs,
sizes -- under every evaluation engine.  A refactor that silently changes
any of it (a cost-model tweak, a tie-break change, a cache layout bug)
fails here first, with a diff a human can read.

The golden values were recorded from the scalar engine, the reference
oracle.  The workload arena's pure-Python backend must reproduce the pick
sequence bit-for-bit; its numpy backend is allowed to permute
*equal-benefit* picks (documented 1-ulp tie behaviour of vectorized
reduction) but must select the same index set at costs within 1e-9.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.advisor import benefit
from repro.advisor.advisor import AdvisorOptions
from repro.advisor.candidates import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.advisor.greedy import GreedySelector
from repro.api.session import TuningSession, workload_candidate_policy
from repro.optimizer import Optimizer
from repro.inum.compiled import numpy_available
from repro.util.units import gigabytes
from repro.workloads import StarSchemaWorkload

#: Candidate cap: small enough for test time, large enough that every
#: workload query has candidates on all of its tables.
MAX_CANDIDATES = 60

#: The pinned recommendation (scalar engine, exact pick order).
GOLDEN_PICKS = [
    ("fact", ("fact_dim01_id", "fact_dim03_id", "fact_dim07_id")),
    ("fact", ("fact_dim05_id",)),
    ("dim07", ("dim07_id", "dim07_a2")),
    ("dim06", ("dim06_id", "dim06_a3")),
    ("dim08", ("dim08_id", "dim08_a3", "dim08_a1")),
    ("dim05", ("dim05_id",)),
    ("dim06", ("dim06_a3", "dim06_a1", "dim06_id")),
    ("dim05", ("dim05_a2", "dim05_a1", "dim05_id")),
]
GOLDEN_CANDIDATE_COUNT = 60
GOLDEN_COST_BEFORE = 22105639.39485733
GOLDEN_COST_AFTER = 11556761.796832442
GOLDEN_TOTAL_INDEX_BYTES = 4674527232
GOLDEN_PER_QUERY_AFTER = {
    "Q1": 43654.386746415046,
    "Q2": 2083969.9453298592,
    "Q3": 38140.216231149316,
    "Q4": 183454.1864345207,
    "Q5": 2301839.2262930963,
    "Q6": 162059.76196528826,
    "Q7": 2297115.9411953827,
    "Q8": 2131143.2667092565,
    "Q9": 184960.87996690383,
    "Q10": 2130423.98596057,
}

#: Parametrized variants (see :func:`engine_variant`): the scalar reference,
#: each arena backend forced, and the default arena.  The numpy-backed
#: variants may permute equal-benefit picks (regrouped sums), but never the
#: pick *set* or any cost.
_ENGINES = ["scalar", "python"] + (["numpy"] if numpy_available() else []) + ["arena"]


@contextmanager
def engine_variant(engine: str):
    """The ``AdvisorOptions.engine`` of one parametrized variant.

    ``"python"``/``"numpy"`` run the arena with that backend forced (the
    cost model compiles arenas with numpy exactly when
    :func:`~repro.advisor.benefit.numpy_available` says so); ``"arena"`` is
    the default path and ``"scalar"`` the reference walk.
    """
    if engine not in ("python", "numpy"):
        yield engine
        return
    saved = benefit.numpy_available
    benefit.numpy_available = lambda: engine == "numpy"
    try:
        yield "arena"
    finally:
        benefit.numpy_available = saved


def _recommend(engine: str):
    workload = StarSchemaWorkload(seed=7)
    with engine_variant(engine) as option:
        session = TuningSession(
            workload.catalog(),
            workload.queries(),
            options=AdvisorOptions(
                space_budget_bytes=gigabytes(5),
                max_candidates=MAX_CANDIDATES,
                engine=option,
            ),
        )
        return session.recommend().result


@pytest.mark.parametrize("engine", _ENGINES)
def test_fig7_recommendation_is_pinned(engine):
    result = _recommend(engine)
    picks = [(index.table, index.columns) for index in result.selected_indexes]

    if engine in ("scalar", "python"):
        assert picks == GOLDEN_PICKS, (
            f"{engine} engine changed the pinned pick sequence:\n"
            f"  got      {picks}\n  expected {GOLDEN_PICKS}"
        )
    else:
        assert sorted(picks) == sorted(GOLDEN_PICKS), (
            f"{engine} engine changed the pinned pick *set*:\n"
            f"  got      {sorted(picks)}\n  expected {sorted(GOLDEN_PICKS)}"
        )

    assert result.candidate_count == GOLDEN_CANDIDATE_COUNT
    assert result.candidates_pruned_for_writes == 0
    assert result.total_index_bytes == GOLDEN_TOTAL_INDEX_BYTES
    assert result.workload_cost_before == pytest.approx(GOLDEN_COST_BEFORE, rel=1e-9)
    assert result.workload_cost_after == pytest.approx(GOLDEN_COST_AFTER, rel=1e-9)
    assert set(result.per_query_cost_after) == set(GOLDEN_PER_QUERY_AFTER)
    for name, expected in GOLDEN_PER_QUERY_AFTER.items():
        assert result.per_query_cost_after[name] == pytest.approx(expected, rel=1e-9), (
            f"{engine} engine moved {name}'s post-recommendation cost"
        )


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_arena_engine_is_pinned_to_numpy():
    """The numpy arena reproduces the pure-Python arena's recommendation."""
    arena = _recommend("numpy")
    reference = _recommend("python")
    arena_picks = sorted((i.table, i.columns) for i in arena.selected_indexes)
    python_picks = sorted((i.table, i.columns) for i in reference.selected_indexes)
    assert arena_picks == python_picks
    assert arena.workload_cost_after == pytest.approx(
        reference.workload_cost_after, rel=1e-9
    )
    for name, expected in reference.per_query_cost_after.items():
        assert arena.per_query_cost_after[name] == pytest.approx(expected, rel=1e-9)


def test_selectors_agree_on_the_golden_workload():
    """The paper's exhaustive loop, over the scalar reference model, pins the
    very same recommendation the lazy selector produces."""
    workload = StarSchemaWorkload(seed=7)
    catalog, queries = workload.catalog(), workload.queries()
    plan = workload_candidate_policy(CandidateGenerator(catalog), queries, MAX_CANDIDATES)
    model = CacheBackedWorkloadCostModel(
        Optimizer(catalog), queries, plan.pool, engine="scalar"
    )
    steps = GreedySelector(catalog, model, gigabytes(5)).select(plan.pool)
    picks = [(step.chosen.table, step.chosen.columns) for step in steps]
    assert picks == GOLDEN_PICKS
    assert steps[-1].workload_cost_after == pytest.approx(GOLDEN_COST_AFTER, rel=1e-9)
