"""Golden plan-cache digest: the optimizer's costs are pinned to the last bit.

For the ten fig-7 star reads and the two TPC-H-like queries this test pins

* the stock ``Optimizer.optimize`` cost with nested loops on and off, on the
  bare catalog, under the PINUM probing configuration (one index per
  interesting order, which makes merge joins on index orders and nested
  loops reachable) and under the advisor's whole candidate pool (whose
  multi-column indexes also offer orders that are not interesting), and
  the EXPLAIN text of each of those plans,
* every entry of the plan cache :class:`~repro.pinum.PinumCacheBuilder`
  builds: its interesting-order combination, leaf slots, internal cost,
  total cost and EXPLAIN text, in cache order, and
* the access-cost table the builder collects for the advisor's whole
  candidate pool.

Floats enter the digests through ``repr``, which round-trips exactly, so a
change that moves any cost by one ulp -- a memo keyed wrongly, a sum
regrouped, a tie broken differently -- changes a digest.  The stock costs
are listed explicitly so the common failure reads as a plain number diff.

To see what moved, print ``_query_lines(...)`` before and after a change and
diff the two outputs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import pytest

from repro.advisor.candidates import CandidateGenerator
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.pinum.cache_builder import PinumCacheBuilder, probing_index_set
from repro.workloads import StarSchemaWorkload
from repro.workloads.tpch_like import TpchLikeWorkload

#: Per query: stock costs as (bare, probing, candidates) x (nlj on, nlj off),
#: then the cache entry count and the sha256 digests of the plan lines (stock
#: plans and cache entries) and of the access-cost lines.
GOLDEN: Dict[str, Tuple] = {
    "fig7/Q1": (
        (2108459.8345121015, 2108459.8345121015,
         2108459.8345121015, 2108459.8345121015,
         43654.386746415206, 43654.386746415206),
        1,
        "4b77b061cceb1c5b681c5e72bca8bc642e112457f94eaa14ed268972da2b73e2",
        "2cfb5eb5a5c2b6f1344a3c2810092affee510bc16f1c6c0efe2b969dcb459512",
    ),
    "fig7/Q2": (
        (2123069.54659694, 2123069.54659694,
         162341.60374176234, 2123069.54659694,
         19164.501544563467, 39537.84493051623),
        4,
        "3a028db2dd6e9cb276dc54f0023576288d06077d07fcad9e6008f4afe5a613cb",
        "ac6e4df900e85e1089f3559ed3f66e87dd4807af9cfa8befaae6e6cc04166c95",
    ),
    "fig7/Q3": (
        (2301642.3229204575, 2301642.3229204575,
         48880.5645388165, 2301642.3229204575,
         22368.400528132424, 1635987.4710505586),
        5,
        "f1129c5c29a6eec443119281b87dfd6f078e0e2b81cb43c02f42a1971cdb68e2",
        "5aa7a0a4f11ea8b9da3a091f3d7547101470a9e93ad9b49bff95ecee31e6e285",
    ),
    "fig7/Q4": (
        (2165809.5885453913, 2165809.5885453913,
         162373.74282959584, 2165809.5885453913,
         21558.08660472867, 84548.7404105283),
        20,
        "2a253733e96970fcde2d90bc45f10945882876c95f9758bb67c436418d8ab932",
        "2af13fdc41658f30f8598ff6944e00d47101e9e9dd1911007b3ca6fc183bb3ee",
    ),
    "fig7/Q5": (
        (2344382.2330781478, 2344382.2330781478,
         49080.56258364602, 2344382.2330781478,
         22576.325819561767, 1836234.5382928269),
        23,
        "038356bf1c60f518a126b9acb4f2e92a4489ac65cd0c316e34de0a84a20680da",
        "5a48b93145151607ab096152b9a27c125aa5addcecfce9eaaeb87d2d4835704a",
    ),
    "fig7/Q6": (
        (2101701.847682087, 2101701.847682087,
         161000.75325731054, 2101701.847682087,
         18217.574084961594, 18217.574084961594),
        2,
        "76163b400000869aa4d611e55cced9daaa8fb6d012e39866cfce19728e86c727",
        "1dd61a22afd5616afc0855d0d9c24c0eda89314bfcc18b4171d47df1fdb80a6b",
    ),
    "fig7/Q7": (
        (2297115.9411953827, 2297115.9411953827,
         180116.45242060508, 2297115.9411953827,
         103817.76150488343, 1613336.987852221),
        3,
        "8422499274762ae728dca40995fe11788e17380fe00fd07850093768203e1b33",
        "2d9a750c523018ea2b44476854dd65c0c1c82d96eee0ac75d49941d21b1e5ce5",
    ),
    "fig7/Q8": (
        (2150638.2596049714, 2150638.2596049714,
         2131134.8211700544, 2150638.2596049714,
         61116.57866194277, 81121.35124796424),
        4,
        "b56e693295d4f29340f2bb43c5a6c7017bf7df6185811fe8e3abaa70e67a7af7",
        "69f70ac82f386fccb7279d954748f621c8ccd5bfefd9ad99c1bf8cb397956e5e",
    ),
    "fig7/Q9": (
        (2339855.9831438423, 2339855.9831438423,
         180148.59153100467, 2339855.9831438423,
         104767.59740636515, 1893063.023826451),
        24,
        "b53bec14ed501ebd6bea1e92fb9b7fcdb931a93ff9a1eb8701bf690bbc02a9f4",
        "4c75c12ab23ebdf834686efb2e274f8b68efe642b43d5bb844c5f39525c600bc",
    ),
    "fig7/Q10": (
        (2172963.837578006, 2172963.837578006,
         1460020.7910569776, 2172963.837578006,
         54607.137751963586, 105370.9234342545),
        28,
        "d665be408e68593e00c5bca525449d1e305461d22e31fa9555f7f8a25a70f5a6",
        "972550d06924b65600b428ed04f320f589c54c63ad16e82dc252d72e2a4789d7",
    ),
    "tpch/tpch_q5_like": (
        (166024.3850012167, 166024.3850012167,
         55.5146757762853, 166024.3850012167,
         39.68134264744834, 137375.24333246227),
        44,
        "2a1d168fe88b65268f6e6459e74d347f7e26d72bd9d89fe6bccfcea0062f1a3c",
        "0edb3ba4ca85335eb7ccafeaae8abc1ef49062acf836683a1302dbd4071a82d9",
    ),
    "tpch/tpch_small_join": (
        (165776.85754947554, 165776.85754947554,
         28909.75531590191, 152696.21216674973,
         609.655316501911, 124396.11216734975),
        7,
        "28e51b7d59f036acd37c1a2b9db596417b8329ceeea8e1fc0a60a04f8bab3044",
        "355e442c9afe2ec663eaa62b73225daa2301a0e213a418aebd6ea099bb055cf5",
    ),
}


def _workloads():
    return {"fig7": StarSchemaWorkload(seed=7), "tpch": TpchLikeWorkload(seed=7)}


def _query_lines(catalog, query, candidates) -> Dict[str, List[str]]:
    """The pinned facts of one query, each rendered as exact text lines."""
    optimizer = Optimizer(catalog)
    whatif = WhatIfOptimizer(optimizer)
    stock_plans = [optimizer.optimize(query, enable_nestloop=nlj).plan for nlj in (True, False)]
    for indexes in (probing_index_set(query), candidates):
        stock_plans.extend(
            whatif.optimize_with_configuration(query, indexes, enable_nestloop=nlj).plan
            for nlj in (True, False)
        )
    # EXPLAIN text pins each plan's shape: operators, join predicates, sort
    # columns and index choices.
    plans = [plan.explain() for plan in stock_plans]

    cache = PinumCacheBuilder(optimizer).build_cache(query, candidates)
    for entry in cache.entries:
        slots = ";".join(
            f"{slot.table}:{slot.required_order}:{slot.multiplier!r}:{slot.parameterized}"
            for slot in entry.slots
        )
        plans.append(
            f"{entry.ioc!r}|{entry.uses_nestloop}|{slots}|"
            f"{entry.internal_cost!r}|{entry.plan.total_cost!r}"
        )
        plans.append(entry.plan.explain())
    access = []
    for table in sorted(cache.access_costs.tables()):
        for info in sorted(
            cache.access_costs.entries_for_table(table), key=lambda i: repr(i.index_key)
        ):
            access.append(
                f"{table}|{info.index_key!r}|{info.full_cost!r}|{info.probe_cost!r}|"
                f"{info.rows!r}|{info.provided_order}|{info.covering}"
            )
    return {
        "stock": [repr(plan.total_cost) for plan in stock_plans],
        "entries": len(cache.entries),
        "plans": plans,
        "access": access,
    }


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _observed(workload_name: str) -> Dict[str, Tuple]:
    workload = _workloads()[workload_name]
    catalog = workload.catalog()
    queries = workload.queries()
    candidates = CandidateGenerator(catalog).for_workload(queries)
    observed = {}
    for query in queries:
        lines = _query_lines(catalog, query, candidates)
        observed[f"{workload_name}/{query.name}"] = (
            tuple(float(value) for value in lines["stock"]),
            lines["entries"],
            _digest(lines["plans"]),
            _digest(lines["access"]),
        )
    return observed


@pytest.mark.parametrize("workload_name", ["fig7", "tpch"])
def test_plan_cache_digest_is_pinned(workload_name):
    observed = _observed(workload_name)
    expected = {key: value for key, value in GOLDEN.items() if key.startswith(workload_name)}
    assert set(observed) == set(expected)
    for key, (stock, entries, plans, access) in expected.items():
        got_stock, got_entries, got_plans, got_access = observed[key]
        assert [repr(v) for v in got_stock] == [repr(v) for v in stock], (
            f"{key}: stock optimizer cost moved"
        )
        assert got_entries == entries, f"{key}: plan-cache entry count changed"
        assert got_plans == plans, f"{key}: a plan-cache entry moved"
        assert got_access == access, f"{key}: an access cost moved"


if __name__ == "__main__":  # pragma: no cover - records the GOLDEN table
    for name in ("fig7", "tpch"):
        for key, value in _observed(name).items():
            print(f"    {key!r}: {value!r},")
