"""Seeded inputs and the reference oracle for the end-to-end advisor benchmark.

Every input a run sends to the program is generated here from the workload
name and ``--seed``.  The statement *templates* of a workload are fixed (the
fig-7 star queries, the two TPC-H-like queries); the seed draws their
literals.  Seed 7 keeps the original
literals, so ``--seed 7`` is exactly the paper's fig-7 workload.  Other seeds
shift each range predicate inside its column's domain without changing its
width, which keeps every selectivity, plan cache and pick the same: runs on
different seeds send different statements but do the same amount of work, so
a seed-to-seed spread in a timing is noise, not a different workload.

The seed also draws the warm session's ``evaluate`` and ``what_if`` index
sets and the session-cycle batches.

:class:`Oracle` answers the same questions with the scalar ``InumCostModel``
walk (the reference the program's engines are tested against), in this
process, before any timed request is sent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.advisor import AdvisorOptions, CandidateGenerator
from repro.advisor.candidates import DEFAULT_MAX_CANDIDATES
from repro.api.requests import EvaluateRequest, WhatIfRequest, index_to_dict
from repro.api.session import TuningSession
from repro.catalog.index import Index
from repro.query.ast import Comparison, Statement
from repro.query.templates import templatize
from repro.util.units import gigabytes
from repro.workloads import StarSchemaWorkload, build_tpch_like_catalog, tpch_q5_like_query
from repro.workloads.tpch_like import tpch_small_join_query

#: The seed whose literals are the paper's fig-7 workload (and the default
#: seed of ``repro serve``, whose fresh sessions start with those queries).
FIG7_SEED = 7
#: Index space budget (GiB) every request runs under: the CLI/serve default.
BUDGET_GB = 5.0

#: Index-set size range for ``evaluate`` requests.
EVALUATE_SET_SIZE = (2, 8)
#: Statements per session-cycle ``add_queries`` batch, and how many of them
#: carry literals no session has seen (each of those needs a delta cache
#: build; the rest repeat the warm session's statements and are adopted from
#: the shared tier).
CYCLE_BATCH = 4
CYCLE_FRESH = 1


def _catalog(name: str):
    if name == "star":
        return StarSchemaWorkload(seed=FIG7_SEED).catalog()
    return build_tpch_like_catalog()


def builtin_names(catalog: str) -> List[str]:
    """Statement names a fresh ``repro serve`` session over ``catalog`` holds."""
    if catalog == "star":
        return [query.name for query in StarSchemaWorkload(seed=FIG7_SEED).queries()]
    return [tpch_q5_like_query().name, tpch_small_join_query().name]


def _base_workload(workload: str) -> Tuple[str, List[Statement]]:
    """(catalog name, statements) at fig-7 literals."""
    if workload == "fig7-star":
        return "star", list(StarSchemaWorkload(seed=FIG7_SEED).queries())
    if workload == "tpch-small":
        return "tpch", [tpch_q5_like_query(), tpch_small_join_query()]
    raise ValueError(f"unknown workload {workload!r}")


def relit(statement: Statement, catalog, rng: random.Random, name: str) -> Statement:
    """``statement`` with freshly drawn literals and the same selectivities.

    A BETWEEN range keeps its width and moves inside the column's
    ``[min, max]``; an equality value is redrawn from that domain; INSERT and
    UPDATE values (which no cost depends on) are redrawn like the generator
    draws them.
    """
    template, params = templatize(statement)
    values = list(params)
    position = 0
    while position < len(template.slots):
        slot = template.slots[position]
        if slot.kind == "filter_value":
            predicate = statement.filters[slot.path[0]]
            stats = catalog.statistics(predicate.table).column(predicate.column.column)
            low = stats.min_value
            high = stats.max_value
            if predicate.op is Comparison.BETWEEN:
                width = float(predicate.value2) - float(predicate.value)
                if low is not None and high is not None and high - low > width:
                    start = float(rng.randint(int(low), int(high - width)))
                    values[position] = start
                    values[position + 1] = start + width
                position += 2
                continue
            if low is not None and high is not None:
                values[position] = float(rng.randint(int(low), int(high)))
        position += 1
    return template.instantiate(values, name=name)


@dataclass
class Inputs:
    """Everything one run sends: statements, index sets and batches."""

    workload: str
    catalog_name: str
    catalog: object
    #: The workload, named ``file_q1..`` exactly as ``--sql-file`` names it.
    statements: List[Statement]
    #: The candidate pool ``recommend`` selects from (workload policy, capped).
    pool: List[Index]
    rng: random.Random = field(repr=False)

    @property
    def sql_text(self) -> str:
        """The workload as one ``;``-separated ``--sql-file`` body."""
        return ";\n".join(statement.to_sql() for statement in self.statements) + ";\n"

    def add_queries_entries(self) -> List[dict]:
        """The workload as serve ``add_queries`` entries."""
        return [{"sql": statement.to_sql(), "name": statement.name}
                for statement in self.statements]

    def evaluate_sets(self, count: int) -> List[List[Index]]:
        """``count`` random pool subsets of :data:`EVALUATE_SET_SIZE` sizes."""
        return [
            self.rng.sample(self.pool, self.rng.randint(*EVALUATE_SET_SIZE))
            for _ in range(count)
        ]

    def what_if_sets(self, count: int) -> List[List[Index]]:
        """``count`` index sets, each new to every statement of the workload.

        A set holds one pool index on every table the workload reads, so each
        ``what_if`` re-optimizes every statement under a configuration none of
        the earlier sets gave it: the same optimizer work on every seed.
        """
        by_table: Dict[str, List[Index]] = {}
        for index in self.pool:
            by_table.setdefault(index.table, []).append(index)
        seen = set()
        sets: List[List[Index]] = []
        for _ in range(1000 * count):
            if len(sets) == count:
                return sets
            candidate = [self.rng.choice(indexes) for indexes in by_table.values()]
            configs = {
                (statement.name, frozenset(
                    index.key for index in candidate if index.table in statement.tables
                ))
                for statement in self.statements
            }
            if not configs & seen:
                seen |= configs
                sets.append(candidate)
        raise RuntimeError(f"could not draw {count} never-seen what-if index sets")

    def cycle_batches(self, count: int) -> List[List[dict]]:
        """``count`` session-cycle batches of ``add_queries`` entries.

        Batch ``n`` takes :data:`CYCLE_BATCH` consecutive workload statements
        from position ``n * CYCLE_BATCH`` (wrapping), the same ones on every
        seed.  The first :data:`CYCLE_FRESH` get never-seen literals (a delta
        cache build each); the rest are verbatim copies of the warm session's
        statements, adopted from the shared tier.  Entries carry no name (the
        server numbers them).
        """
        batches = []
        total = len(self.statements)
        for number in range(count):
            batch = []
            for position in range(CYCLE_BATCH):
                statement = self.statements[(number * CYCLE_BATCH + position) % total]
                if position < CYCLE_FRESH:
                    statement = relit(statement, self.catalog, self.rng, statement.name)
                batch.append({"sql": statement.to_sql()})
            batches.append(batch)
        return batches


def make_inputs(workload: str, seed: int) -> Inputs:
    """The run's inputs for ``workload`` at ``seed`` (deterministic)."""
    catalog_name, base = _base_workload(workload)
    catalog = _catalog(catalog_name)
    rng = random.Random(f"{workload}:{seed}")
    statements: List[Statement] = []
    for number, statement in enumerate(base, start=1):
        name = f"file_q{number}"
        if seed == FIG7_SEED:
            fresh = statement.renamed(name)
        else:
            fresh = relit(statement, catalog, rng, name)
        statements.append(fresh)
    pool = CandidateGenerator(catalog).for_workload(statements)[:DEFAULT_MAX_CANDIDATES]
    return Inputs(
        workload=workload,
        catalog_name=catalog_name,
        catalog=catalog,
        statements=statements,
        pool=pool,
        rng=rng,
    )


def index_payload(indexes: Sequence[Index]) -> List[dict]:
    return [index_to_dict(index) for index in indexes]


def index_label(index: Index) -> str:
    """``table(col, ...)`` -- the form ``repro recommend`` prints picks in."""
    return f"{index.table}({', '.join(index.columns)})"


class Oracle:
    """The scalar reference engine's answers for one run's inputs."""

    def __init__(self, inputs: Inputs) -> None:
        self._session = TuningSession(
            inputs.catalog,
            inputs.statements,
            options=AdvisorOptions(
                space_budget_bytes=gigabytes(BUDGET_GB),
                max_candidates=DEFAULT_MAX_CANDIDATES,
                engine="scalar",
            ),
        )
        result = self._session.recommend().result
        #: Sorted: engines may break exact benefit ties in a different order.
        self.picks: List[str] = sorted(index_label(index) for index in result.selected_indexes)
        self.cost_before: float = result.workload_cost_before
        self.cost_after: float = result.workload_cost_after

    def evaluate(self, indexes: Sequence[Index]) -> float:
        return self._session.evaluate(EvaluateRequest(indexes=list(indexes))).total_cost

    def what_if(self, indexes: Sequence[Index]) -> float:
        return self._session.what_if(WhatIfRequest(indexes=list(indexes))).total_cost


def close_enough(actual: Optional[float], expected: float, rel: float = 1e-9) -> bool:
    """Relative agreement within ``rel`` (the equivalence suites' tolerance)."""
    if actual is None:
        return False
    return abs(actual - expected) <= rel * max(abs(expected), 1.0)
