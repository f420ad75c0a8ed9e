"""Run the ``repro`` CLI with timing wrappers around each layer's entry points.

Usage::

    python e2ebench/launch.py SPANS_OUT KIND -- <repro CLI arguments>

The launcher times ``import repro.cli`` in this fresh interpreter, wraps the
public entry points listed in :data:`TARGETS`, then calls
``repro.cli.main`` in the same process -- for a one-shot ``recommend`` and
for ``serve --tcp`` alike.  Spans are folded into per-(request kind, layer)
totals in memory and written to ``SPANS_OUT`` as one JSON object when
``main`` returns (``serve`` returns on SIGTERM).

A span's *self* time is its duration minus the part its child spans cover.
A call into a layer that is already the innermost open span (``for_workload``
calling ``for_query``, ``estimate`` calling ``estimate_detail``) is not a new
span.  ``KIND`` labels everything the process does; in a server, a request
whose ``id`` is ``"<kind>:<n>"`` labels the spans under its handler with
``<kind>``.  Targets missing from the program (a removed engine, say) are
skipped, so the layer names stay stable while the code behind them changes;
the span file lists the targets that were wrapped, and the benchmark fails a
traced run in which a layer has none.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped entry point.  The inum
#: evaluation layer wraps whichever engine classes exist (see
#: :data:`EVAL_METHODS`), named by role, not by implementation.
TARGETS: List[Tuple[str, str, str]] = [
    ("cli", "repro.cli", "main"),
    ("workloads", "repro.workloads.star_schema", "StarSchemaWorkload.catalog"),
    ("workloads", "repro.workloads.tpch_like", "build_tpch_like_catalog"),
    ("query", "repro.query.parser", "parse_statement"),
    ("advisor.candidates", "repro.advisor.candidates", "CandidateGenerator.for_workload"),
    ("advisor.candidates", "repro.advisor.candidates", "CandidateGenerator.for_query"),
    ("whatif", "repro.optimizer.whatif", "WhatIfCallCache.optimize_with_configuration"),
    ("whatif", "repro.optimizer.whatif", "WhatIfOptimizer.optimize_with_configuration"),
    ("optimizer", "repro.optimizer.optimizer", "Optimizer.optimize"),
    # A recommend's maintenance step: refresh the write statements' profiles
    # over the pool and prune write-dominated candidates (both return at once
    # on a read-only workload), plus the maintenance cost model itself.
    ("optimizer.maintenance", "repro.api.session", "TuningSession._apply_maintenance"),
    ("optimizer.maintenance", "repro.api.session", "TuningSession._prune_candidates"),
    ("optimizer.maintenance", "repro.optimizer.maintenance",
     "MaintenanceCostModel.index_maintenance_cost"),
    ("optimizer.maintenance", "repro.optimizer.maintenance",
     "MaintenanceCostModel.rows_affected"),
    ("inum.build", "repro.pinum.cache_builder", "PinumCacheBuilder.build_cache"),
    ("inum.build", "repro.inum.cache_builder", "InumCacheBuilder.build_cache"),
    ("inum.compile", "repro.inum.compiled", "compile_cache"),
    ("inum.compile", "repro.inum.arena", "compile_arena"),
    ("advisor.lazy", "repro.advisor.lazy_greedy", "LazyGreedySelector.select"),
    ("advisor.ilp_formulation", "repro.advisor.ilp.formulation", "build_formulation"),
    ("advisor.ilp_solve", "repro.advisor.ilp.solver", "BranchAndBoundSolver.solve"),
    ("api.session", "repro.api.session", "TuningSession.recommend"),
    ("api.serve", "repro.api.serve", "ServeFrontend.handle"),
]

#: Evaluation entry points of the cache engines: (module, base class, methods).
#: Every subclass defining one of the methods is wrapped too.
EVAL_METHODS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("repro.inum.compiled", "CompiledCostEngine",
     ("estimate", "estimate_detail", "estimate_batch", "entry_costs")),
    ("repro.inum.arena", "WorkloadArena",
     ("per_query_vector", "evaluate_detail", "evaluate", "evaluate_batch",
      "frontier_detail", "evaluate_frontier", "query_cost", "maintenance_vector")),
]


#: Target modules ``repro serve`` imports lazily (after ``repro.cli``).
SERVE_MODULES = ("repro.api.server", "repro.advisor.ilp.solver", "repro.advisor.ilp.formulation")


class Recorder:
    """Per-(kind, layer) span totals plus per-kind counters, in memory."""

    def __init__(self, kind: str) -> None:
        self._default_kind = kind
        self._local = threading.local()
        self._lock = threading.Lock()
        #: kind -> layer -> [self_ms, total_ms, calls]
        self.layers: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0])
        )
        #: kind -> counter -> value
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: request id -> handler wall time (ms), for serve round-trip splits.
        self.handled: Dict[str, float] = {}

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.kind = self._default_kind
        return local

    def count(self, name: str, value: float = 1.0) -> None:
        kind = self._state().kind
        with self._lock:
            self.counters[kind][name] += value

    def wrap(self, layer: str, function: Callable,
             after: Optional[Callable[["Recorder", tuple, Any], None]] = None) -> Callable:
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - start) * 1000.0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with recorder._lock:
                    totals = recorder.layers[state.kind][layer]
                    totals[0] += elapsed - frame[1]
                    totals[1] += elapsed
                    totals[2] += 1
            if after is not None:
                after(recorder, args, result)
            return result

        return wrapper

    def wrap_handler(self, function: Callable) -> Callable:
        """``ServeFrontend.handle``: label the request's spans by its id's kind."""
        recorder = self
        timed = self.wrap("api.serve", function, after=_after_handle)

        @functools.wraps(function)
        def wrapper(frontend, payload, *args, **kwargs):
            state = recorder._state()
            request_id = payload.get("id") if isinstance(payload, dict) else None
            previous = state.kind
            if isinstance(request_id, str) and ":" in request_id:
                state.kind = request_id.split(":", 1)[0]
            start = time.perf_counter()
            try:
                return timed(frontend, payload, *args, **kwargs)
            finally:
                if isinstance(request_id, str):
                    with recorder._lock:
                        recorder.handled[request_id] = (time.perf_counter() - start) * 1000.0
                state.kind = previous

        return wrapper

    def to_dict(self, import_ms: float, installed: List[str]) -> dict:
        with self._lock:
            return {
                "import_ms": import_ms,
                "installed": installed,
                "layers": {
                    kind: {layer: list(values) for layer, values in layers.items()}
                    for kind, layers in self.layers.items()
                },
                "counters": {kind: dict(values) for kind, values in self.counters.items()},
                "handled": dict(self.handled),
            }


def _after_handle(recorder: Recorder, args: tuple, result: Any) -> None:
    if isinstance(result, dict) and not result.get("ok"):
        recorder.count("api.error_responses")


def _after_lazy(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("advisor.lazy_evaluations", args[0].statistics.candidate_evaluations)


def _after_solve(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("advisor.ilp_nodes", result.nodes_explored)
    recorder.count("advisor.ilp_solves")
    if result.status in ("optimal", "gap_reached"):
        recorder.count("advisor.ilp_gap_stops")


def _record_caches(recorder: Recorder, original: Callable) -> Callable:
    """``SessionStatistics.record_caches``: count cache acquisitions by source."""

    @functools.wraps(original)
    def wrapper(self, source, count=1):
        recorder.count(f"caches.{source}", count)
        return original(self, source, count)

    return wrapper


AFTER = {
    "LazyGreedySelector.select": _after_lazy,
    "BranchAndBoundSolver.solve": _after_solve,
}


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind a module-level function in every loaded module that imported it."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, replacement)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(recorder: Recorder) -> List[str]:
    """Wrap every target whose module is loaded; returns ``layer:path`` labels."""
    installed = []
    for layer, module_name, path in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner: Any = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if owner is None or not hasattr(owner, parts[-1]):
            continue
        original = getattr(owner, parts[-1])
        if path == "ServeFrontend.handle":
            wrapped = recorder.wrap_handler(original)
        else:
            wrapped = recorder.wrap(layer, original, AFTER.get(path))
        setattr(owner, parts[-1], wrapped)
        if owner is module:
            _replace_everywhere(original, wrapped)
        installed.append(f"{layer}:{path}")
    for module_name, base_name, methods in EVAL_METHODS:
        base = getattr(sys.modules.get(module_name), base_name, None)
        if base is None:
            continue
        for cls in _subclasses(base):
            for method in methods:
                if method in vars(cls):
                    setattr(cls, method, recorder.wrap("inum.eval", vars(cls)[method]))
                    installed.append(f"inum.eval:{cls.__name__}.{method}")
    try:
        from repro.api.session import SessionStatistics
    except ImportError:
        pass
    else:
        SessionStatistics.record_caches = _record_caches(
            recorder, SessionStatistics.record_caches
        )
        installed.append("counter:SessionStatistics.record_caches")
    return installed


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: launch.py SPANS_OUT KIND -- <repro CLI arguments>", file=sys.stderr)
        return 2
    spans_out, kind, cli_args = argv[0], argv[1], argv[3:]
    start = time.perf_counter()
    import repro.cli

    import_ms = (time.perf_counter() - start) * 1000.0
    if cli_args[:1] == ["serve"]:
        # The server imports these on first use; load them now so they get
        # wrapped.  A one-shot recommend never does, so it is spared the cost.
        for module_name in SERVE_MODULES:
            importlib.import_module(module_name)
    recorder = Recorder(kind)
    installed = install(recorder)
    try:
        return repro.cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(recorder.to_dict(import_ms, installed), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
