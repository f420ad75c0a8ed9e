"""CELF-style lazy greedy selection: the production greedy search.

The paper's exhaustive loop (kept as the reference
:class:`~repro.advisor.greedy.GreedySelector`) re-evaluates *every*
remaining candidate in *every* iteration, although a candidate's benefit only
shrinks as winners accumulate (adding an index can only lower the cost the
next index is compared against -- the diminishing-returns property greedy
index selection relies on).  This selector has two paths:

* **Over the workload arena** (the default engine) it re-scores the whole
  remaining frontier per round with one batched
  :meth:`~repro.advisor.benefit.IncrementalWorkloadEvaluator.frontier` call
  -- no stale bounds, so the picks match the exhaustive scan by
  construction.
* **Over any other model** (the scalar reference engine, the optimizer-backed
  oracle) it runs Leskovec et al.'s CELF: candidates sit in a max-heap of
  *stale* benefit upper bounds and only the top is re-evaluated until the
  freshly evaluated candidate stays on top, at which point no stale bound
  below it can beat it.

Tie-breaking mirrors the exhaustive scan: the heap orders equal benefits by
original candidate position, so among exact ties the earliest candidate wins
-- which is what ``cost < best_cost`` (strict) picks in the exhaustive loop.
Candidates that no longer fit the remaining space budget are dropped
permanently when popped, and the loop stops on the same
``min_relative_benefit`` condition, so the produced
:class:`~repro.advisor.greedy.SelectionStep` sequence is identical to the
reference loop's (asserted by the tests and the selection benchmark).

The heap path's identity guarantee is exactly as strong as the
diminishing-returns assumption.  The INUM cost model is not provably
submodular: a cached plan whose slots need orders on *two* tables stays
infeasible until covering indexes exist on both, so picking the first index
can *grow* the second's benefit -- a growth a stale upper bound never
advertises, which could make the heap settle for a different (never
budget-violating, possibly slightly worse) set than the exhaustive scan.  No
such interaction appears in the reproduction's workloads (the identity
assertions in the tier-1 tests and the benchmark would catch one), and the
arena path is immune by construction.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from repro.advisor.benefit import IncrementalWorkloadEvaluator, WorkloadCostModel
from repro.advisor.greedy import SelectionStatistics, SelectionStep, memo_counters
from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.obs.trace import get_tracer
from repro.util.errors import AdvisorError
from repro.util.timing import timed


class LazyGreedySelector:
    """Lazy (CELF) greedy selection of indexes under a space budget.

    Same constructor, ``select`` contract and picks as the reference
    :class:`~repro.advisor.greedy.GreedySelector`.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: WorkloadCostModel,
        space_budget_bytes: int,
        min_relative_benefit: float = 1e-4,
    ) -> None:
        if space_budget_bytes <= 0:
            raise AdvisorError(f"space budget must be positive, got {space_budget_bytes}")
        self._catalog = catalog
        self._cost_model = cost_model
        self._budget = space_budget_bytes
        self._min_relative_benefit = min_relative_benefit
        #: Statistics of the most recent :meth:`select` run.
        self.statistics = SelectionStatistics()

    def select(self, candidates: Sequence[Index]) -> List[SelectionStep]:
        """Run the lazy greedy loop and return the chosen indexes in pick order."""
        with get_tracer().span(
            "select.lazy", candidates=len(candidates)
        ) as span, timed() as timer:
            return self._select(candidates, span, timer)

    def _finish(self, stats, timer, evaluations_before, memo_before, span) -> None:
        """Close out one run: totals into the stats, the span, the registry."""
        stats.seconds = timer.elapsed()
        stats.query_evaluations = self._cost_model.query_evaluations - evaluations_before
        memo_after = memo_counters(self._cost_model)
        stats.memo_hits = memo_after[0] - memo_before[0]
        stats.memo_misses = memo_after[1] - memo_before[1]
        span.set(
            rounds=stats.iterations, evaluations=stats.candidate_evaluations
        )
        stats.publish("lazy")

    def _select(self, candidates: Sequence[Index], span, timer) -> List[SelectionStep]:
        stats = SelectionStatistics()
        self.statistics = stats
        evaluations_before = self._cost_model.query_evaluations
        memo_before = memo_counters(self._cost_model)

        evaluator = IncrementalWorkloadEvaluator(self._cost_model)
        if evaluator.supports_frontier:
            # Fused-arena models answer a whole frontier in one batched call,
            # so re-scoring every stale candidate per round is cheaper than
            # maintaining the heap of one-at-a-time bounds.
            span.set(batched=True)
            steps = self._select_batched(candidates, evaluator, stats)
            self._finish(stats, timer, evaluations_before, memo_before, span)
            return steps
        current_cost = evaluator.total
        baseline_cost = current_cost
        winners: List[Index] = []
        steps: List[SelectionStep] = []
        used_bytes = 0

        # Heap entries: (-benefit, original position, evaluation stamp,
        # evaluated workload cost, candidate).  A stamp equal to the current
        # iteration means the bound is exact for the current winner set.
        # Duplicate (table, columns) keys are interchangeable for selection,
        # so only the first occurrence enters the heap -- the reference loop
        # removes all duplicates of a pick at once, with the same effect.
        iteration = 1
        heap: List[Tuple[float, int, int, float, Index]] = []
        seen_keys = set()
        for position, candidate in enumerate(candidates):
            if candidate.key in seen_keys:
                continue
            seen_keys.add(candidate.key)
            if self._catalog.index_size_bytes(candidate) > self._budget:
                stats.pruned_for_space += 1
                continue
            cost = evaluator.cost_with(winners, candidate)
            stats.candidate_evaluations += 1
            heapq.heappush(heap, (cost - current_cost, position, iteration, cost, candidate))

        while heap:
            stats.iterations += 1
            chosen = None
            chosen_cost = current_cost
            while heap:
                negated_benefit, position, stamp, cost, candidate = heapq.heappop(heap)
                if used_bytes + self._catalog.index_size_bytes(candidate) > self._budget:
                    stats.pruned_for_space += 1
                    continue
                if stamp == iteration:
                    chosen = candidate
                    chosen_cost = cost
                    break
                cost = evaluator.cost_with(winners, candidate)
                stats.candidate_evaluations += 1
                heapq.heappush(
                    heap, (cost - current_cost, position, iteration, cost, candidate)
                )

            if chosen is None or not chosen_cost < current_cost:
                break
            benefit = current_cost - chosen_cost
            if baseline_cost > 0 and benefit / baseline_cost < self._min_relative_benefit:
                break

            winners.append(chosen)
            used_bytes += self._catalog.index_size_bytes(chosen)
            evaluator.commit(winners, chosen)
            steps.append(
                SelectionStep(
                    chosen=chosen,
                    workload_cost_before=current_cost,
                    workload_cost_after=chosen_cost,
                    cumulative_size_bytes=used_bytes,
                )
            )
            current_cost = chosen_cost
            iteration += 1

        self._finish(stats, timer, evaluations_before, memo_before, span)
        return steps

    def _select_batched(
        self,
        candidates: Sequence[Index],
        evaluator: IncrementalWorkloadEvaluator,
        stats: SelectionStatistics,
    ) -> List[SelectionStep]:
        """Whole-frontier re-scoring per round over the fused arena.

        Every remaining candidate is re-scored by one
        :meth:`~repro.advisor.benefit.IncrementalWorkloadEvaluator.frontier`
        call per round -- no stale bounds, so the picks match the exhaustive
        scan by construction (same strict `<` over the same totals in the
        same original candidate order).  Duplicate keys are dropped upfront
        like the heap path; budget pruning is permanent like both loops.
        """
        current_cost = evaluator.total
        baseline_cost = current_cost
        winners: List[Index] = []
        steps: List[SelectionStep] = []
        used_bytes = 0

        remaining: List[Index] = []
        seen_keys = set()
        for candidate in candidates:
            if candidate.key in seen_keys:
                continue
            seen_keys.add(candidate.key)
            remaining.append(candidate)

        while remaining:
            stats.iterations += 1
            fitting = []
            for candidate in remaining:
                if used_bytes + self._catalog.index_size_bytes(candidate) > self._budget:
                    stats.pruned_for_space += 1
                    continue
                fitting.append(candidate)
            remaining = fitting
            if not remaining:
                break

            costs = evaluator.frontier(winners, remaining)
            stats.candidate_evaluations += len(remaining)
            chosen = None
            chosen_cost = current_cost
            for candidate, cost in zip(remaining, costs):
                if cost < chosen_cost:
                    chosen_cost = cost
                    chosen = candidate

            if chosen is None:
                break
            benefit = current_cost - chosen_cost
            if baseline_cost > 0 and benefit / baseline_cost < self._min_relative_benefit:
                break

            winners.append(chosen)
            remaining = [c for c in remaining if c.key != chosen.key]
            used_bytes += self._catalog.index_size_bytes(chosen)
            evaluator.commit(winners, chosen)
            steps.append(
                SelectionStep(
                    chosen=chosen,
                    workload_cost_before=current_cost,
                    workload_cost_after=chosen_cost,
                    cumulative_size_bytes=used_bytes,
                )
            )
            current_cost = chosen_cost
        return steps


def build_lazy_selector(
    catalog: Catalog,
    cost_model: WorkloadCostModel,
    space_budget_bytes: int,
    min_relative_benefit: float = 1e-4,
) -> LazyGreedySelector:
    """Factory behind the ``"lazy"`` entry of
    :data:`repro.api.registry.SELECTORS` (same picks, far fewer evaluations)."""
    return LazyGreedySelector(catalog, cost_model, space_budget_bytes, min_relative_benefit)
