"""Golden equivalence layer: compressed tuning == uncompressed weighted tuning.

Workload compression (:mod:`repro.workloads.compress`) claims to be
*semantics-preserving*: folding a trace's statement instances into one
weighted representative per template must not change what the advisor
recommends or what it thinks the recommendation costs.  This module makes
that claim checkable instead of asserted, on two workloads:

* **fig-7** -- the paper's ten-query star workload, replayed as duplicated
  instances; the compressed run must reproduce the pinned golden picks of
  ``test_golden_recommend.py`` with costs scaled by exactly the
  multiplicity;
* **a 2k-statement Zipfian trace** -- the mixed read/write stream
  ``StarSchemaWorkload.trace`` emits, compressed versus the same workload
  hand-folded into distinct statements with count weights (the
  "uncompressed weighted run").

Both are exercised across every evaluation engine variant (the scalar
reference, the arena on each backend, the default arena) and both selectors (``lazy`` and ``ilp``): picks must be
identical and every reported cost must match within 1e-9.  A final test
drops the weights entirely -- tuning the raw instance list as individual
session entries -- to prove the multiplicity-weight fold means exactly
"this statement, executed that many times".
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from test_golden_recommend import (
    _ENGINES,
    GOLDEN_COST_AFTER,
    GOLDEN_PICKS,
    MAX_CANDIDATES,
    engine_variant,
)
from repro.advisor.advisor import AdvisorOptions
from repro.api.requests import RecommendRequest
from repro.api.session import TuningSession
from repro.query.parser import parse_statement
from repro.util.fingerprint import template_fingerprint
from repro.util.units import gigabytes
from repro.workloads import StarSchemaWorkload

_SELECTORS = ["lazy", "ilp"]

#: Candidate cap for the trace matrix: small enough that the ILP
#: branch-and-bound proves gap 0 in well under a second on this instance
#: (at 40 candidates it runs to its time limit, whose wall-clock cutoff
#: would also make the compressed/reference equality nondeterministic),
#: large enough that it actually branches and the selectors disagree with
#: a trivial pick.
TRACE_CANDIDATES = 25
TRACE_LENGTH = 2000

#: Exact pick order is only guaranteed for the sequential evaluations (the
#: scalar walk, the pure-Python arena); the vectorized reductions may
#: permute *equal-benefit* picks (documented 1-ulp tie behaviour), so those
#: compare pick sets.
_ORDER_EXACT = {"scalar", "python"}


def _picks(result):
    return [(index.table, index.columns) for index in result.selected_indexes]


def _assert_same_recommendation(compressed, reference, engine, name_map=None):
    """Identical picks and all costs within 1e-9.

    ``name_map`` translates reference per-statement names to compressed
    (template) names; identity when omitted.
    """
    left, right = _picks(compressed), _picks(reference)
    if engine in _ORDER_EXACT:
        assert left == right, (
            f"{engine}: compressed run changed the pick sequence:\n"
            f"  compressed {left}\n  reference  {right}"
        )
    else:
        assert sorted(left) == sorted(right)
    assert compressed.workload_cost_before == pytest.approx(
        reference.workload_cost_before, rel=1e-9
    )
    assert compressed.workload_cost_after == pytest.approx(
        reference.workload_cost_after, rel=1e-9
    )
    assert compressed.total_index_bytes == reference.total_index_bytes
    name_map = name_map or {name: name for name in reference.per_query_cost_after}
    assert set(compressed.per_query_cost_after) == set(name_map.values())
    for ref_name, tpl_name in name_map.items():
        assert compressed.per_query_cost_after[tpl_name] == pytest.approx(
            reference.per_query_cost_after[ref_name], rel=1e-9
        ), f"{engine}: cost of {ref_name} moved under compression"


# -- fig-7: duplicated instances must reproduce the pinned golden run -------


class TestFig7Golden:
    def _options(self, engine, selector="lazy", **overrides):
        return AdvisorOptions(
            space_budget_bytes=gigabytes(5),
            max_candidates=MAX_CANDIDATES,
            engine=engine,
            selector=selector,
            **overrides,
        )

    @pytest.mark.parametrize("engine", _ENGINES)
    def test_compressing_unique_templates_is_a_no_op(self, engine):
        """Ten distinct templates: compression must change nothing at all."""
        workload = StarSchemaWorkload(seed=7)
        with engine_variant(engine) as option:
            session = TuningSession(
                workload.catalog(), workload.queries(),
                options=self._options(option, compress=True),
            )
            response = session.recommend()
        result = response.result
        assert response.compression == {
            "statements": 10, "templates": 10, "ratio": 1.0,
            "total_weight": 10.0, "lossless": True,
        }
        if engine in _ORDER_EXACT:
            assert _picks(result) == GOLDEN_PICKS
        else:
            assert sorted(_picks(result)) == sorted(GOLDEN_PICKS)
        assert result.workload_cost_after == pytest.approx(
            GOLDEN_COST_AFTER, rel=1e-9
        )

    def test_triplicated_instances_fold_to_the_golden_picks(self):
        """3 literal-identical instances per query == the golden run x3.

        Uniform multiplicity cannot move any *relative* benefit, so the
        pick sequence is the pinned golden one and every cost is exactly
        three times its golden value.
        """
        workload = StarSchemaWorkload(seed=7)
        instances = [
            query.renamed(f"{query.name}_run{copy}")
            for query in workload.queries()
            for copy in range(3)
        ]
        session = TuningSession(
            workload.catalog(), instances,
            options=self._options("scalar", compress=True),
        )
        response = session.recommend()
        result = response.result
        assert response.compression == {
            "statements": 30, "templates": 10, "ratio": 3.0,
            "total_weight": 30.0, "lossless": True,
        }
        assert _picks(result) == GOLDEN_PICKS
        assert result.workload_cost_after == pytest.approx(
            3.0 * GOLDEN_COST_AFTER, rel=1e-9
        )
        # One cache per template, never one per instance.
        assert response.caches_built + response.caches_from_store == 10


# -- the 2k-statement Zipfian trace, every engine x selector ----------------


@pytest.fixture(scope="module")
def trace_instances():
    """The 2k-statement mixed trace as parsed, uniquely named statements."""
    workload = StarSchemaWorkload(seed=7)
    lines = workload.trace(TRACE_LENGTH, seed=11, phases=("mixed",))
    statements = [
        parse_statement(json.loads(line)["sql"], name=f"s{position:04d}")
        for position, line in enumerate(lines)
    ]
    assert len(statements) == TRACE_LENGTH
    return workload.catalog(), statements


def _fold_by_sql(statements):
    """The hand-built reference: distinct statements + count weights.

    This is the "uncompressed weighted run" -- no templatizer involved,
    just exact-SQL multiplicity counting, which is equivalent for a trace
    whose instances of a template share their literals.
    """
    distinct, counts = [], Counter()
    first_seen = {}
    for statement in statements:
        sql = statement.to_sql()
        if sql not in first_seen:
            first_seen[sql] = statement
            distinct.append(statement)
        counts[first_seen[sql].name] += 1.0
    return distinct, dict(counts)


def _trace_options(engine, selector):
    return AdvisorOptions(
        space_budget_bytes=gigabytes(2),
        max_candidates=TRACE_CANDIDATES,
        engine=engine,
        selector=selector,
    )


@pytest.fixture(scope="module")
def trace_references(trace_instances):
    """Reference recommendations, memoized per (engine, selector)."""
    catalog, statements = trace_instances
    distinct, counts = _fold_by_sql(statements)
    cache = {}

    def reference(engine, selector):
        if (engine, selector) not in cache:
            with engine_variant(engine) as option:
                session = TuningSession(
                    catalog, distinct, options=_trace_options(option, selector)
                )
                session.set_weights(counts)
                cache[(engine, selector)] = session.recommend().result
        return cache[(engine, selector)]

    return reference


@pytest.mark.parametrize("selector", _SELECTORS)
@pytest.mark.parametrize("engine", _ENGINES)
def test_trace_compression_matches_the_weighted_run(
    trace_instances, trace_references, engine, selector
):
    """Compressed recommend == hand-folded weighted recommend, at 1e-9."""
    catalog, statements = trace_instances
    distinct, counts = _fold_by_sql(statements)
    with engine_variant(engine) as option:
        session = TuningSession(
            catalog, statements, options=_trace_options(option, selector)
        )
        response = session.recommend(RecommendRequest(compress=True))

    assert response.compression is not None
    assert response.compression["statements"] == TRACE_LENGTH
    assert response.compression["templates"] == len(distinct)
    assert response.compression["lossless"] is True
    # Dozens of cache builds, not thousands: exactly one per template.
    assert response.caches_built + response.caches_from_store == len(distinct)

    name_map = {
        statement.name: f"tpl_{template_fingerprint(statement)}"
        for statement in distinct
    }
    _assert_same_recommendation(
        response.result, trace_references(engine, selector), engine, name_map
    )


def test_add_queries_compress_matches_the_weighted_run(
    trace_instances, trace_references
):
    """The streaming entry point folds to the same recommendation.

    ``add_queries(compress=True)`` merges multiplicity into the session's
    statement weights batch by batch; after feeding the whole trace in
    four chunks the session must hold one representative per template and
    recommend exactly what the hand-folded weighted session does.
    """
    catalog, statements = trace_instances
    distinct, _ = _fold_by_sql(statements)
    session = TuningSession(catalog, options=_trace_options("arena", "lazy"))
    chunk = TRACE_LENGTH // 4
    for start in range(0, TRACE_LENGTH, chunk):
        names = session.add_queries(statements[start:start + chunk], compress=True)
        assert all(name.startswith("tpl_") for name in names)
    assert len(session.queries) == len(distinct)
    assert sum(session.options.weight_map().values()) == pytest.approx(TRACE_LENGTH)

    name_map = {
        statement.name: f"tpl_{template_fingerprint(statement)}"
        for statement in distinct
    }
    _assert_same_recommendation(
        session.recommend().result,
        trace_references("arena", "lazy"),
        "arena",
        name_map,
    )


def test_weighted_fold_equals_true_instance_replay(trace_instances):
    """Multiplicity weights mean exactly "executed that many times".

    The ground truth has no weights at all: every instance is its own
    session entry.  That is only affordable for a slice of the trace, but
    it pins the semantics the whole equivalence layer leans on -- the
    weighted fold and the raw instance list price identically and pick
    identically.
    """
    catalog, statements = trace_instances
    slice_ = statements[:200]
    options = AdvisorOptions(
        space_budget_bytes=gigabytes(2), max_candidates=20, engine="arena"
    )

    raw = TuningSession(catalog, slice_, options=options).recommend().result

    compressed_session = TuningSession(
        catalog, slice_, options=AdvisorOptions(
            space_budget_bytes=gigabytes(2), max_candidates=20,
            engine="arena", compress=True,
        ),
    )
    compressed = compressed_session.recommend().result

    assert _picks(compressed) == _picks(raw)
    assert compressed.workload_cost_before == pytest.approx(
        raw.workload_cost_before, rel=1e-9
    )
    assert compressed.workload_cost_after == pytest.approx(
        raw.workload_cost_after, rel=1e-9
    )


def test_parameter_churn_is_flagged_as_approximate(trace_instances):
    """Literal variation inside a template reports ``lossless: False``.

    The representative-statement approximation is a documented trade, not
    a silent one: the stats every surface exposes must say which regime
    the workload is in.
    """
    catalog, _ = trace_instances
    variants = [
        parse_statement(
            "SELECT fact.fact_m1 FROM fact "
            f"WHERE fact.fact_m1 > {10 + shift}.0",
            name=f"v{shift}",
        )
        for shift in range(8)
    ]
    session = TuningSession(
        catalog, variants,
        options=AdvisorOptions(
            space_budget_bytes=gigabytes(2), max_candidates=10,
            engine="arena", compress=True,
        ),
    )
    response = session.recommend()
    assert response.compression == {
        "statements": 8, "templates": 1, "ratio": 8.0,
        "total_weight": 8.0, "lossless": False,
    }
    # One representative, weight 8: still one cache build.
    assert response.caches_built + response.caches_from_store == 1
