"""Online drift daemon: one re-tune per phase change, warm and thrash-free.

The online subsystem's pitch (:mod:`repro.online`) is that a long-lived
daemon can follow a statement stream and keep the index configuration
current *without* re-running cold tuning on a timer.  This benchmark replays
a deterministic two-phase trace -- star-schema analytics first, update-heavy
traffic second -- through an :class:`~repro.online.OnlineTuner` and measures
exactly that:

* **two-phase**  -- the drift detector fires exactly once, at the phase
  boundary; every tune (bootstrap and re-tune) builds plan caches only for
  never-seen templates, and zero caches are built outside a tune,
* **warm vs cold** -- the boundary re-tune on the warm session is compared
  against a cold session tuning the same window from scratch; the warm
  re-tune must be >= 5x cheaper (>= 1.3x in CI quick mode, where
  ``REPRO_BENCH_QUERIES`` shrinks the template pool and fixed selection
  cost dominates),
* **warm self time** -- the trend gate's number (``warm_self_over_seed``):
  the boundary re-tune's seconds *outside* the what-if optimizer, divided
  by the frozen seed selection loop (the reference
  :class:`~repro.advisor.greedy.GreedySelector` over the scalar model) run
  on the same window in the same process.  The optimizer share of a warm
  re-tune is the delta builds of new templates, so dividing by an
  optimizer-bound cold tune made every optimizer speed-up *raise* the
  ratio; the seed loop is untouched by the optimizer, and runner speed
  cancels out,
* **stationary** -- a same-length single-phase trace performs zero re-tunes,
* **thrash**     -- traffic oscillating *below* the high-water mark (a 15 %
  write admixture coming and going) performs zero re-tunes.

Both evaluation engines are exercised: ``engine="arena"`` (the production
default) and ``engine="scalar"`` (the reference walk), each gated against
its own baseline.

Run with:  pytest benchmarks/bench_online_drift.py --benchmark-only -s
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from contextlib import contextmanager

import pytest

from repro.advisor import AdvisorOptions, CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.advisor.greedy import GreedySelector
from repro.api.session import TuningSession, per_query_candidate_policy
from repro.bench.harness import ExperimentTable
from repro.online import MemoryStatementSource, OnlineTuner, OnlineTunerConfig
from repro.optimizer import Optimizer
from repro.workloads import TracePhase, emit_trace

#: Analytical templates in the read phase (the paper's star workload has 10).
FULL_TEMPLATE_COUNT = 10
#: Statements replayed per scenario (split evenly across the two phases).
FULL_TRACE_LENGTH = 600


def _template_count() -> int:
    override = os.environ.get("REPRO_BENCH_QUERIES")
    if override is None:
        return FULL_TEMPLATE_COUNT
    return min(FULL_TEMPLATE_COUNT, max(2, int(override)))


def _required_speedup() -> float:
    """Warm/cold floor: 5x on the full pool, softer in CI quick mode.

    The cold tune rebuilds every template's plan cache while the warm
    re-tune builds only the never-seen delta, so the gap grows with the
    template pool; with 4 or fewer analytics templates the fixed selection
    cost dominates and the honest floor is just "meaningfully faster".
    """
    return 5.0 if _template_count() >= 8 else 1.3


#: Candidate cap of every tune (and of the seed-loop normaliser).
MAX_CANDIDATES = 60
#: (replay, seed loop) pairs whose median ratio the trend gate reads.
TIMING_REPEATS = 9


@contextmanager
def _gc_paused():
    """Collect, then keep the collector off for a timed region (as timeit
    does): a collection landing inside one ~20 ms re-tune and not another
    would dominate the ratio's noise."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _options(engine: str) -> AdvisorOptions:
    return AdvisorOptions(
        candidate_policy="per_query", max_candidates=MAX_CANDIDATES, engine=engine
    )


def _seed_loop(catalog, statements, weights):
    """A timer for the frozen seed loop over ``statements``: the normaliser.

    Caches are built here, outside any timed region; each call of the
    returned function times one run of the reference exhaustive loop over
    the scalar model, on the same candidate policy and budget the tunes use.
    """
    pool = per_query_candidate_policy(
        CandidateGenerator(catalog), statements, MAX_CANDIDATES
    ).pool
    model = CacheBackedWorkloadCostModel(
        Optimizer(catalog), statements, pool, engine="scalar", weights=weights
    )
    budget = AdvisorOptions().space_budget_bytes

    def run() -> float:
        with _gc_paused():
            started = time.perf_counter()
            GreedySelector(catalog, model, budget).select(pool)
            return time.perf_counter() - started

    return run


def _tuner(catalog, engine: str, window: int) -> OnlineTuner:
    session = TuningSession(catalog, [], options=_options(engine))
    config = OnlineTunerConfig(
        window_statements=window, drift_high_water=0.25, drift_low_water=0.1
    )
    return OnlineTuner(session, MemoryStatementSource(), config)


def _two_phase(catalog, engine: str, window: int, lines):
    """Replay the two-phase trace on a fresh tuner.

    Returns ``(tuner, decisions, boundary window, warm re-tune seconds,
    what-if optimizer seconds inside that re-tune)`` -- the optimizer share
    is the re-tune's delta builds of never-seen templates.
    """
    tuner = _tuner(catalog, engine, window)
    optimizer = tuner.session.optimizer
    decisions = []
    boundary_workload = None
    optimizer_seconds = float("nan")
    for start in range(0, len(lines), 50):
        tuner.source.feed(lines[start:start + 50])
        optimizer_before = optimizer.total_optimization_seconds
        with _gc_paused():
            polled = tuner.poll()
        for decision in polled:
            decisions.append(decision)
            if decision.kind == "drift" and boundary_workload is None:
                # Snapshot the window the re-tune saw, for the cold control.
                boundary_workload = tuner.window.workload()
                optimizer_seconds = optimizer.total_optimization_seconds - optimizer_before
    assert boundary_workload is not None, "no drift re-tune fired on the two-phase trace"
    warm_seconds = next(d.seconds for d in decisions if d.kind == "drift")
    return tuner, decisions, boundary_workload, warm_seconds, optimizer_seconds


def _run_online_drift(star_workload, engine: str):
    reads = tuple(star_workload.queries(_template_count()))
    writes = tuple(star_workload.dml_statements())
    analytics = TracePhase("analytics", reads)
    updates = TracePhase("updates", writes + reads[:2])
    trace_length = FULL_TRACE_LENGTH
    window = 150
    catalog = star_workload.catalog()

    # -- two-phase: analytics -> update-heavy, one boundary ----------------
    lines = emit_trace([analytics, updates], trace_length, seed=11)
    first = _two_phase(catalog, engine, window, lines)
    tuner, decisions, boundary_workload, warm_seconds, _ = first
    drift_decisions = [d for d in decisions if d.kind == "drift"]
    statements, weights = boundary_workload

    # -- warm self time vs the seed loop, paired back to back --------------
    # Each of TIMING_REPEATS pairs replays the trace on a fresh tuner and
    # then times the seed loop, so a host slowdown hits both sides of a
    # ratio; the gate reads the median ratio.  The assertions below check
    # the first replay.
    seed_loop = _seed_loop(catalog, statements, weights)
    ratios, seed_timings = [], []
    for repeat in range(TIMING_REPEATS):
        replay = first if repeat == 0 else _two_phase(catalog, engine, window, lines)
        warm_self = max(replay[3] - replay[4], 0.0)
        seed_timings.append(seed_loop())
        ratios.append(warm_self / max(seed_timings[-1], 1e-9))

    # -- cold control: a fresh session tunes the same window from scratch --
    cold_session = TuningSession(catalog, statements, options=_options(engine))
    cold_session.set_weights(weights, replace=True)
    started = time.perf_counter()
    cold_response = cold_session.recommend()
    cold_seconds = time.perf_counter() - started

    # -- stationary: the same length of single-phase traffic ---------------
    stationary = _tuner(catalog, engine, window)
    stationary_lines = emit_trace([analytics], trace_length, seed=11)
    for start in range(0, len(stationary_lines), 50):
        stationary.source.feed(stationary_lines[start:start + 50])
        stationary.poll()

    # -- thrash: a 15% write admixture oscillating below the high water ----
    thrash = _tuner(catalog, engine, window=80)
    def round_robin(pool, count):
        return [pool[i % len(pool)] for i in range(count)]
    thrash.source.feed(round_robin(reads, 80))
    thrash.poll()
    for _ in range(3):
        thrash.source.feed(round_robin(reads, 68) + round_robin(writes, 12))
        thrash.poll()
        thrash.source.feed(round_robin(reads, 80))
        thrash.poll()

    rows = {
        "engine": engine,
        "templates": len(reads) + len(writes),
        "trace_length": trace_length,
        "retunes": tuner.retunes_triggered,
        "fires": tuner.detector.fires,
        "warm_seconds": warm_seconds,
        "warm_builds": drift_decisions[0].caches_built if drift_decisions else -1,
        "cold_seconds": cold_seconds,
        "cold_builds": cold_response.caches_built + cold_response.caches_deduplicated,
        "warm_over_cold": warm_seconds / max(cold_seconds, 1e-9),
        "seed_seconds": statistics.median(seed_timings),
        "warm_self_over_seed": statistics.median(ratios),
        "stationary_retunes": stationary.retunes_triggered,
        "thrash_retunes": thrash.retunes_triggered,
        "thrash_peak_drift": max(thrash.detector.history),
    }
    return rows, decisions, tuner, stationary, thrash, cold_response


@pytest.mark.parametrize("engine", ["arena", "scalar"])
def test_online_drift_retunes_once_and_warm(benchmark, star_workload, engine):
    """Exactly one warm re-tune at the phase boundary; quiet otherwise."""
    rows, decisions, tuner, stationary, thrash, cold = benchmark.pedantic(
        _run_online_drift, args=(star_workload, engine), rounds=1, iterations=1
    )
    table = ExperimentTable(
        f"Online drift daemon (engine={engine}, "
        f"{rows['templates']} templates, {rows['trace_length']}-statement trace)",
        ["scenario", "re-tunes", "seconds", "caches built"],
    )
    table.add_row("two-phase warm re-tune", rows["retunes"], rows["warm_seconds"],
                  rows["warm_builds"])
    table.add_row("cold control", 1, rows["cold_seconds"], rows["cold_builds"])
    table.add_row("seed loop (normaliser)", 0, rows["seed_seconds"], 0)
    table.add_row("stationary", rows["stationary_retunes"], 0.0, 0)
    table.add_row("thrash (in-band)", rows["thrash_retunes"], 0.0, 0)
    table.print()
    benchmark.extra_info["online_drift"] = rows

    # Exactly one re-tune, at the phase boundary, none anywhere else.
    assert rows["retunes"] == 1
    assert rows["fires"] == 1
    assert [d.kind for d in decisions].count("bootstrap") == 1

    # Delta builds only: every tune's cache builds equal its new templates,
    # and no cache is ever built outside a tune.
    for decision in decisions:
        assert decision.caches_built == decision.new_templates
    assert tuner.session.statistics.caches_built == sum(
        d.new_templates for d in decisions
    )
    assert rows["warm_builds"] < rows["cold_builds"]

    # Quiet scenarios stay quiet.
    assert rows["stationary_retunes"] == 0
    assert stationary.detector.fires == 0
    assert rows["thrash_retunes"] == 0
    assert 0.1 < rows["thrash_peak_drift"] <= 0.25  # the band was entered

    speedup = rows["cold_seconds"] / max(rows["warm_seconds"], 1e-9)
    required = _required_speedup()
    assert speedup >= required, (
        f"warm re-tune speedup {speedup:.1f}x below the required {required}x "
        f"(cold {rows['cold_seconds']:.3f}s, warm {rows['warm_seconds']:.3f}s)"
    )
