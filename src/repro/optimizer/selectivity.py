"""Selectivity and cardinality estimation.

The estimator turns predicates into selectivities using the catalog's column
statistics (NDV for equalities, histograms for ranges) and combines them with
independence assumptions, the same simplifications a textbook System-R style
optimizer makes.  Join selectivity uses the classic ``1 / max(ndv_l, ndv_r)``
formula.  All estimates are clamped so downstream cost formulas never see
negative or zero cardinalities where that would be meaningless.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.catalog.catalog import Catalog
from repro.catalog.statistics import TableStatistics
from repro.query.ast import Comparison, JoinPredicate, Predicate, Query
from repro.util.errors import PlanningError


class SelectivityEstimator:
    """Estimate predicate selectivities and intermediate result sizes."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    # -- single-table predicates ---------------------------------------------

    def predicate_selectivity(self, predicate: Predicate) -> float:
        """Selectivity of one single-table predicate in ``(0, 1]``."""
        stats = self._catalog.statistics(predicate.table)
        column = stats.column(predicate.column.column)
        if predicate.op is Comparison.EQ:
            selectivity = column.equality_selectivity()
        elif predicate.op is Comparison.NE:
            selectivity = 1.0 - column.equality_selectivity()
        elif predicate.op is Comparison.BETWEEN:
            selectivity = column.range_selectivity(predicate.value, predicate.value2)
        elif predicate.op in (Comparison.LT, Comparison.LE):
            selectivity = column.range_selectivity(None, predicate.value)
        elif predicate.op in (Comparison.GT, Comparison.GE):
            selectivity = column.range_selectivity(predicate.value, None)
        else:  # pragma: no cover - the enum is exhaustive
            raise PlanningError(f"unsupported comparison {predicate.op!r}")
        return _clamp_selectivity(selectivity)

    def table_selectivity(self, query: Query, table: str) -> float:
        """Combined selectivity of every filter on ``table`` (independence)."""
        selectivity = 1.0
        for predicate in query.filters_on(table):
            selectivity *= self.predicate_selectivity(predicate)
        return _clamp_selectivity(selectivity)

    def table_rows(self, query: Query, table: str) -> float:
        """Estimated rows of ``table`` surviving the query's filters."""
        stats = self._catalog.statistics(table)
        return max(1.0, stats.row_count * self.table_selectivity(query, table))

    # -- joins ----------------------------------------------------------------

    def join_selectivity(self, join: JoinPredicate) -> float:
        """Selectivity of an equi-join predicate: ``1 / max(ndv_left, ndv_right)``."""
        left_stats = self._catalog.statistics(join.left.table)
        right_stats = self._catalog.statistics(join.right.table)
        ndv_left = left_stats.distinct_values(join.left.column)
        ndv_right = right_stats.distinct_values(join.right.column)
        largest = max(ndv_left, ndv_right, 1.0)
        return _clamp_selectivity(1.0 / largest)

    def join_result_rows(self, query: Query, tables: FrozenSet[str]) -> float:
        """Estimated cardinality of joining the subset ``tables``.

        The estimate is the product of filtered base-table cardinalities
        multiplied by the selectivity of every join predicate internal to the
        subset -- the standard System-R formula.  The product runs in FROM
        order, not in the subset's set order, so the estimate does not move
        by an ulp with the interpreter's string-hash seed.
        """
        rows = 1.0
        for table in query.tables:
            if table in tables:
                rows *= self.table_rows(query, table)
        for join in query.joins:
            if join.tables <= tables:
                rows *= self.join_selectivity(join)
        return max(1.0, rows)

    # -- aggregation -----------------------------------------------------------

    def group_count(self, query: Query, input_rows: float) -> float:
        """Estimated number of groups produced by the GROUP BY clause."""
        if not query.group_by:
            return 1.0
        distinct_product = 1.0
        for ref in query.group_by:
            stats = self._catalog.statistics(ref.table)
            distinct_product *= stats.distinct_values(ref.column)
        # Cap by input cardinality: you cannot have more groups than rows.
        return max(1.0, min(distinct_product, input_rows))

    # -- widths -----------------------------------------------------------------

    def output_row_width(self, query: Query, tables: Iterable[str]) -> int:
        """Approximate width in bytes of a joined row over ``tables``."""
        return max(8, sum(self.table_row_width(query, table) for table in tables))

    def table_row_width(self, query: Query, table: str) -> int:
        """Width in bytes of ``table``'s columns the query references.

        A table the query reads no column of still contributes its first
        column, so a joined row never has a zero-width member.
        """
        stats = self._catalog.statistics(table)
        columns = query.columns_of(table) or [stats.table.columns[0].name]
        return stats.tuple_width(columns)

    def statistics(self, table: str) -> TableStatistics:
        """Convenience pass-through used by the access-path collector."""
        return self._catalog.statistics(table)

    def filtered_rows_by_table(self, query: Query) -> Dict[str, float]:
        """Filtered cardinality of every table in the query (for diagnostics)."""
        return {table: self.table_rows(query, table) for table in query.tables}


def _clamp_selectivity(value: float) -> float:
    """Keep selectivities inside ``[1e-9, 1.0]``."""
    return min(1.0, max(1e-9, value))
