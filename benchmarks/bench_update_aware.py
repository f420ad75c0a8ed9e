"""Update-aware tuning: the recommended index set shrinks under write pressure.

A pure-SELECT advisor picks every index whose read benefit fits the space
budget; an update-aware one charges each recommended index the maintenance
cost the workload's INSERT/UPDATE/DELETE traffic would pay for it and only
keeps indexes whose *net* benefit (weighted read savings minus weighted
maintenance) stays positive.  This benchmark sweeps the star-schema mixed
workload's write fraction from 0% to 50% and records the recommendation at
each point.

Asserted:

* at 0% writes the recommendation is identical to the pure-SELECT advisor's
  (the write statements exist but carry weight 0 -- update-awareness is
  strictly opt-in),
* the number of recommended indexes is monotonically non-increasing in the
  write fraction (maintenance charges only grow), and
* at the highest write fraction at least one index chosen at 0% writes has
  been dropped.

The statement set is *fixed* across the sweep -- only the weights move --
so every re-tune after the first answers from the session's warm plan
caches and compiled layouts; the sweep measures selection economics, not
cache construction.

Run with:  pytest benchmarks/bench_update_aware.py --benchmark-only -s
"""

from __future__ import annotations

import time

from repro.advisor import AdvisorOptions
from repro.api.requests import RecommendRequest
from repro.api.session import TuningSession
from repro.bench.harness import ExperimentTable
from repro.util.units import gigabytes

from benchmarks.conftest import bench_query_count

#: Weighted write-execution shares swept (0% = pure-read weights).
WRITE_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
#: The paper's space budget.
BUDGET = gigabytes(5)
#: Candidate cap shared with the CLI default experiments.
MAX_CANDIDATES = 60


def _read_count() -> int:
    return min(10, max(2, bench_query_count()))


def _run_write_sweep(star_workload):
    read_count = _read_count()
    session = None
    rows = []
    picks_by_fraction = {}
    for write_fraction in WRITE_FRACTIONS:
        mixed = star_workload.mixed(
            read_fraction=1.0 - write_fraction, read_count=read_count
        )
        if session is None:
            session = TuningSession(
                star_workload.catalog(),
                mixed.statements,
                options=AdvisorOptions(
                    space_budget_bytes=BUDGET,
                    max_candidates=MAX_CANDIDATES,
                    statement_weights=mixed.weights,
                ),
            )
        else:
            session.set_weights(mixed.weights)
        started = time.perf_counter()
        response = session.recommend()
        seconds = time.perf_counter() - started
        result = response.result
        picks_by_fraction[write_fraction] = [
            index.key for index in result.selected_indexes
        ]
        rows.append({
            "write_fraction": write_fraction,
            "picks": len(result.selected_indexes),
            "pruned_for_writes": result.candidates_pruned_for_writes,
            "caches_built": response.caches_built,
            "cost_after": result.workload_cost_after,
            "seconds": seconds,
        })

    # Reference: the pure-SELECT advisor over the read queries alone.
    pure_session = TuningSession(
        star_workload.catalog(),
        star_workload.queries(read_count),
        options=AdvisorOptions(
            space_budget_bytes=BUDGET, max_candidates=MAX_CANDIDATES
        ),
    )
    pure = pure_session.recommend(RecommendRequest()).result
    pure_picks = [index.key for index in pure.selected_indexes]

    table = ExperimentTable(
        f"Update-aware tuning: write-fraction sweep "
        f"({read_count} reads + {len(mixed.write_statements)} writes, "
        f"{MAX_CANDIDATES} candidates)",
        ["write fraction", "picks", "pruned", "caches built", "cost after", "seconds"],
    )
    for row in rows:
        table.add_row(
            f"{row['write_fraction'] * 100:.0f}%", row["picks"],
            row["pruned_for_writes"], row["caches_built"],
            row["cost_after"], row["seconds"],
        )
    return table, rows, picks_by_fraction, pure_picks


def test_recommendation_shrinks_with_write_fraction(benchmark, star_workload):
    """More write pressure never grows -- and eventually shrinks -- the pick set."""
    table, rows, picks_by_fraction, pure_picks = benchmark.pedantic(
        _run_write_sweep, args=(star_workload,), rounds=1, iterations=1
    )
    table.print()
    benchmark.extra_info["update_aware_sweep"] = rows

    # 0% writes == the pure-SELECT advisor, pick for pick.
    assert picks_by_fraction[0.0] == pure_picks, (
        "zero-weight write statements changed the recommendation: "
        f"{picks_by_fraction[0.0]} != {pure_picks}"
    )

    # Monotonically non-increasing pick counts along the sweep.
    counts = [len(picks_by_fraction[fraction]) for fraction in WRITE_FRACTIONS]
    assert all(a >= b for a, b in zip(counts, counts[1:])), (
        f"pick counts increased under write pressure: {counts}"
    )

    # At 50% writes, at least one 0%-writes index has been dropped.
    dropped = set(picks_by_fraction[0.0]) - set(picks_by_fraction[WRITE_FRACTIONS[-1]])
    assert dropped, (
        "no index chosen at 0% writes was dropped at "
        f"{WRITE_FRACTIONS[-1] * 100:.0f}% writes"
    )

    # The sweep re-tunes on warm caches: only the first point builds.
    assert all(row["caches_built"] == 0 for row in rows[1:]), (
        "weight changes rebuilt plan caches: "
        f"{[row['caches_built'] for row in rows]}"
    )
