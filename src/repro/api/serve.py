"""``repro serve``: the tuning service over newline-delimited JSON.

One request per line on stdin, one response per line on stdout -- no network
dependency, so the frontend composes with anything that can spawn a process
(an editor plugin, a shell pipeline, a container sidecar):

    $ printf '%s\n' \
        '{"id": 1, "op": "ping"}' \
        '{"id": 2, "op": "recommend"}' \
        '{"id": 3, "op": "shutdown"}' | repro serve --catalog tpch

Requests are ``{"id": ..., "op": ..., "params": {...}}``; ``id`` is echoed
back so clients can pipeline.  Responses are ``{"id": ..., "ok": true,
"op": ..., "result": {...}}`` or ``{"id": ..., "ok": false, "error":
{"type": ..., "message": ...}}``.  A malformed line produces an error
response (``id: null``), never a crash: the loop only ends on EOF or an
explicit ``shutdown``.

The frontend drives one long-lived :class:`~repro.api.session.TuningSession`
per catalog: sessions are created on first use, seeded with the catalog's
built-in workload, and keep their caches, call cache and compiled layouts
warm across requests -- so the second ``recommend`` against a catalog costs
selection only.  A request may address a non-default catalog with a
top-level ``"catalog"`` (and optional ``"seed"``) field.

Operations: ``ping``, ``workload``, ``recommend``, ``evaluate``,
``what_if``, ``explain``, ``add_queries``, ``remove_queries``,
``set_budget``, ``set_weights``, ``stats``, ``watch_start``,
``watch_stats``, ``watch_stop``, ``shutdown``.  ``add_queries`` accepts DML
statements (INSERT/UPDATE/DELETE) next to SELECT queries, and a per-entry
``weight``; ``set_weights`` adjusts statement frequencies so ``recommend``
optimizes net benefit (read savings minus weighted index maintenance).
The ``watch_*`` family attaches an :class:`~repro.online.OnlineTuner` to a
session: ``watch_start`` begins following a statement feed (a file path, or
an in-memory source that ``watch_stats`` pushes ``statements`` into),
``watch_stats`` polls the feed and reports drift/re-tune state, and
``watch_stop`` detaches.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Dict, IO, Optional, Tuple

from repro.online import (
    FileTailSource,
    MemoryStatementSource,
    OnlineTuner,
    OnlineTunerConfig,
)

from repro.advisor.advisor import AdvisorOptions
from repro.api.requests import (
    EvaluateRequest,
    ExplainRequest,
    RecommendRequest,
    WhatIfRequest,
)
from repro.advisor.benefit import validate_statement_weight
from repro.api.session import TuningSession
from repro.api.tier import SharedCacheTier
from repro.obs import render_prometheus, snapshot
from repro.query.parser import parse_statement
from repro.util.errors import AdvisorError, ReproError
from repro.workloads import builtin_catalog_factory

#: Catalogs the frontend can serve (the CLI's built-ins).
SERVABLE_CATALOGS = ("star", "tpch")


def _load_catalog_and_workload(name: str, seed: int):
    if name == "star":
        from repro.workloads import StarSchemaWorkload

        workload = StarSchemaWorkload(seed=seed)
        return workload.catalog(), workload.queries()
    if name == "tpch":
        from repro.workloads.tpch_like import (
            build_tpch_like_catalog,
            tpch_q5_like_query,
            tpch_small_join_query,
        )

        return build_tpch_like_catalog(), [tpch_q5_like_query(), tpch_small_join_query()]
    raise AdvisorError(
        f"unknown catalog {name!r} (servable: {', '.join(repr(c) for c in SERVABLE_CATALOGS)})"
    )


class ServeFrontend:
    """Dispatches JSON requests onto per-catalog :class:`TuningSession`\\ s."""

    def __init__(
        self,
        default_catalog: str = "star",
        seed: int = 7,
        options: Optional[AdvisorOptions] = None,
        shared_tier: Optional[SharedCacheTier] = None,
    ) -> None:
        if default_catalog not in SERVABLE_CATALOGS:
            raise AdvisorError(
                f"unknown catalog {default_catalog!r} "
                f"(servable: {', '.join(repr(c) for c in SERVABLE_CATALOGS)})"
            )
        self._default_catalog = default_catalog
        self._default_seed = seed
        self._options = options or AdvisorOptions()
        #: When set (the TCP server does), sessions share one read-only tier
        #: of plan caches / engines / what-if results keyed by catalog
        #: fingerprint.  ``None`` keeps the stdio frontend's behaviour (and
        #: wire format) exactly as before.
        self._shared_tier = shared_tier
        self._sessions: Dict[Tuple[str, int], TuningSession] = {}
        self._watchers: Dict[Tuple[str, int], OnlineTuner] = {}
        self._shutdown = False

    # -- sessions ----------------------------------------------------------

    def session_for(
        self, catalog: Optional[str] = None, seed: Optional[int] = None
    ) -> TuningSession:
        """The (lazily created) session serving ``catalog`` at ``seed``.

        New sessions start with the catalog's built-in workload, mirroring
        the CLI subcommands; ``add_queries``/``remove_queries`` mutate from
        there.
        """
        name = catalog if catalog is not None else self._default_catalog
        seed_value = seed if seed is not None else self._default_seed
        key = (name, seed_value)
        session = self._sessions.get(key)
        if session is None:
            catalog_object, workload = _load_catalog_and_workload(name, seed_value)
            session = TuningSession(
                catalog_object,
                workload,
                options=self._options,
                catalog_factory=functools.partial(builtin_catalog_factory, name, seed_value),
                shared_tier=self._shared_tier,
            )
            self._sessions[key] = session
        return session

    @property
    def session_count(self) -> int:
        """How many per-catalog sessions are alive."""
        return len(self._sessions)

    # -- request handling --------------------------------------------------

    def handle_line(self, line: str) -> str:
        """One request line in, one response line out (never raises)."""
        try:
            payload = json.loads(line)
        except ValueError as error:
            return json.dumps(self._error_response(None, None, AdvisorError(
                f"request is not valid JSON: {error}"
            )))
        if not isinstance(payload, dict):
            return json.dumps(self._error_response(None, None, AdvisorError(
                "a request must be a JSON object with an 'op' field"
            )))
        return json.dumps(self.handle(payload))

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded request; returns the response object."""
        request_id = payload.get("id")
        op = payload.get("op")
        try:
            if not isinstance(op, str):
                raise AdvisorError("a request must name its operation in the 'op' field")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                known = sorted(
                    name[len("_op_"):] for name in dir(self) if name.startswith("_op_")
                )
                raise AdvisorError(
                    f"unknown operation {op!r} (known: {', '.join(known)})"
                )
            params = payload.get("params") or {}
            if not isinstance(params, dict):
                raise AdvisorError("'params' must be a JSON object")
            result = handler(payload, params)
            return {"id": request_id, "ok": True, "op": op, "result": result}
        except ReproError as error:
            return self._error_response(request_id, op, error)
        except Exception as error:  # noqa: BLE001 - service loop must not die
            # Ill-typed params (a string where an int belongs, ...) surface
            # as TypeError/ValueError/etc. from deep inside the library; a
            # long-lived service answers them like any other bad request
            # instead of crashing mid-stream.
            return self._error_response(request_id, op, error)

    def serve(self, stdin: IO[str], stdout: IO[str]) -> int:
        """The blocking request loop; returns a process exit code."""
        for line in stdin:
            if not line.strip():
                continue
            stdout.write(self.handle_line(line) + "\n")
            stdout.flush()
            if self._shutdown:
                break
        return 0

    # -- operations --------------------------------------------------------

    def _session(self, payload: Dict[str, Any]) -> TuningSession:
        return self.session_for(payload.get("catalog"), payload.get("seed"))

    def _op_ping(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "sessions": self.session_count}

    def _op_workload(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        return self._session(payload).describe().to_dict()

    def _op_recommend(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        return session.recommend(RecommendRequest.from_dict(params)).to_dict()

    def _op_evaluate(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        return session.evaluate(EvaluateRequest.from_dict(params)).to_dict()

    def _op_what_if(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        return session.what_if(WhatIfRequest.from_dict(params)).to_dict()

    def _op_explain(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        return session.explain(ExplainRequest.from_dict(params)).to_dict()

    def _op_add_queries(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        raw = params.get("queries")
        if not isinstance(raw, list) or not raw:
            raise AdvisorError(
                "add_queries needs a non-empty 'queries' list of "
                "{'sql': ..., 'name': ..., 'weight': ...} objects"
            )
        compress = params.get("compress", False)
        if not isinstance(compress, bool):
            raise AdvisorError(f"'compress' must be a boolean, got {compress!r}")
        queries = []
        weights: Dict[str, float] = {}
        taken = set(session.query_names)
        auto_number = len(taken)
        for position, entry in enumerate(raw):
            if not isinstance(entry, dict) or "sql" not in entry:
                raise AdvisorError(f"query #{position + 1} must be {{'sql': ..., 'name': ...}}")
            name = entry.get("name")
            if not name:
                # Skip names already in use: removals leave gaps, so a plain
                # size-based counter would collide with survivors.
                auto_number += 1
                while f"q{auto_number}" in taken:
                    auto_number += 1
                name = f"q{auto_number}"
            taken.add(name)
            # SELECT and INSERT/UPDATE/DELETE alike; mixed workloads are the
            # whole point of update-aware tuning.
            queries.append(parse_statement(entry["sql"], name=name))
            if "weight" in entry:
                # Validate before the workload is touched, so a bad weight in
                # the middle of the batch cannot leave statements half-added
                # (the same atomicity add_queries itself guarantees).
                weights[name] = validate_statement_weight(name, entry["weight"])
        if compress:
            # The fold handles per-entry weights itself (cluster weights are
            # weighted sums), and the returned names are the representatives.
            added = session.add_queries(
                queries, compress=True, weights=weights or None
            )
            return {
                "added": added,
                "workload_size": len(session.queries),
                "compression": session.last_compression,
            }
        added = session.add_queries(queries)
        if weights:
            session.set_weights(weights)
        return {"added": added, "workload_size": len(session.queries)}

    def _op_set_weights(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        weights = params.get("weights")
        if not isinstance(weights, dict) or not weights:
            raise AdvisorError(
                "set_weights needs a non-empty 'weights' object mapping "
                "statement names to numeric weights"
            )
        effective = session.set_weights(
            weights, replace=bool(params.get("replace", False))
        )
        return {"weights": effective}

    def _op_remove_queries(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        names = params.get("names")
        if not isinstance(names, list) or not names:
            raise AdvisorError("remove_queries needs a non-empty 'names' list")
        removed = session.remove_queries([str(name) for name in names])
        return {"removed": removed, "workload_size": len(session.queries)}

    def _op_set_budget(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        budget = params.get("space_budget_bytes")
        if not isinstance(budget, int):
            raise AdvisorError("set_budget needs an integer 'space_budget_bytes'")
        session.set_budget(budget)
        return {"space_budget_bytes": budget}

    def _op_stats(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(payload)
        statistics = session.statistics
        whatif = session.call_cache.statistics
        last = session.last_result
        watcher = self._watchers.get(self._watch_key(payload))
        return {
            "retunes_accepted": statistics.retunes_accepted,
            "retunes_rejected": statistics.retunes_rejected,
            # Monotonic-clock readings (compare against each other / the
            # server's uptime origin); None until the first such call.
            "last_recommend_at": session.last_recommend_at,
            "last_retune_at": session.last_retune_at,
            "watch": None if watcher is None else watcher.statistics.to_dict(),
            "recommend_calls": statistics.recommend_calls,
            "caches_built": statistics.caches_built,
            "caches_from_store": statistics.caches_from_store,
            "caches_deduplicated": statistics.caches_deduplicated,
            "caches_reused": statistics.caches_reused,
            "caches_shared": statistics.caches_shared,
            "caches_warm": session.cached_query_count(),
            "whatif_hits": whatif.hits,
            "whatif_misses": whatif.misses,
            "optimizer_calls": session.optimizer.call_count,
            # Selector telemetry of the most recent recommend: the shared
            # SelectionStatistics shape, gap "n/a" for the greedy heuristics.
            "last_recommend": None if last is None else {
                "selector": last.selector,
                "engine": last.engine,
                "optimality_gap": last.optimality_gap,
                "optimality_gap_text": last.optimality_gap_text(),
                "nodes_explored": last.nodes_explored,
                "incumbent_source": last.incumbent_source,
            },
        }

    # -- watch (online tuning) ---------------------------------------------

    #: ``watch_start`` params forwarded verbatim into :class:`OnlineTunerConfig`.
    _WATCH_CONFIG_KEYS = (
        "window_statements",
        "max_window_age_seconds",
        "drift_metric",
        "drift_high_water",
        "drift_low_water",
        "horizon_statements",
        "poll_interval_seconds",
        "evaluate_every",
        "trace",
    )

    def _watch_key(self, payload: Dict[str, Any]) -> Tuple[str, int]:
        catalog = payload.get("catalog")
        seed = payload.get("seed")
        return (
            catalog if catalog is not None else self._default_catalog,
            seed if seed is not None else self._default_seed,
        )

    def _watcher(self, payload: Dict[str, Any]) -> OnlineTuner:
        key = self._watch_key(payload)
        tuner = self._watchers.get(key)
        if tuner is None:
            raise AdvisorError(
                f"session for catalog {key[0]!r} (seed {key[1]}) is not watching "
                "a feed; send watch_start first"
            )
        return tuner

    def _op_watch_start(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        key = self._watch_key(payload)
        if key in self._watchers:
            raise AdvisorError(
                f"session for catalog {key[0]!r} (seed {key[1]}) is already "
                "watching a feed; send watch_stop first"
            )
        session = self.session_for(*key)
        # Watched sessions live on workload churn; per_query keeps each
        # re-tune's builds to exactly the never-seen templates.
        policy = str(params.get("candidate_policy", "per_query"))
        if session.options.candidate_policy != policy:
            session.configure(candidate_policy=policy)
        overrides = {k: params[k] for k in self._WATCH_CONFIG_KEYS if k in params}
        config = OnlineTunerConfig(**overrides)
        follow = params.get("follow")
        if follow is not None:
            source: Any = FileTailSource(
                str(follow), start_at_end=not params.get("from_start", False)
            )
        else:
            source = MemoryStatementSource()
        tuner = OnlineTuner(session, source, config)
        self._watchers[key] = tuner
        return {
            "watching": True,
            "catalog": key[0],
            "seed": key[1],
            "source": "file" if follow is not None else "memory",
            "path": follow,
            "config": config.to_dict(),
        }

    def _op_watch_stats(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        tuner = self._watcher(payload)
        statements = params.get("statements")
        if statements is not None:
            if not isinstance(statements, list):
                raise AdvisorError("'statements' must be a list of feed lines")
            if not isinstance(tuner.source, MemoryStatementSource):
                raise AdvisorError(
                    "'statements' can only be pushed to a memory-source watcher; "
                    "this one follows a file"
                )
            tuner.source.feed(
                [item if isinstance(item, str) else json.dumps(item) for item in statements]
            )
        decisions = tuner.poll()
        return {
            "statistics": tuner.statistics.to_dict(),
            "decisions": [decision.to_dict() for decision in decisions],
            "config": tuner.config.to_dict(),
        }

    def _op_watch_stop(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        key = self._watch_key(payload)
        tuner = self._watchers.pop(key, None)
        if tuner is None:
            raise AdvisorError(
                f"session for catalog {key[0]!r} (seed {key[1]}) is not watching "
                "a feed; nothing to stop"
            )
        tuner.stop()
        tuner.source.close()
        return {"watching": False, "statistics": tuner.statistics.to_dict()}

    def _op_metrics(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        """The process-wide metrics registry, as Prometheus text or JSON.

        ``format`` is ``"prometheus"`` (default; the exposition text under
        an ``"exposition"`` key) or ``"json"`` (the structured snapshot).
        Every family the stack declares is present with HELP/TYPE headers
        even before it has recorded anything.
        """
        fmt = params.get("format", "prometheus")
        if fmt == "prometheus":
            return {"format": "prometheus", "exposition": render_prometheus()}
        if fmt == "json":
            return {"format": "json", **snapshot()}
        raise AdvisorError(
            f"unknown metrics format {fmt!r} (known: 'prometheus', 'json')"
        )

    def _op_shutdown(self, payload: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        self._shutdown = True
        return {"shutting_down": True}

    # -- observability -----------------------------------------------------

    def session_overview(self) -> list:
        """Per-session liveness for ``server_stats`` (one dict per session)."""
        now = time.monotonic()
        overview = []
        for (catalog, seed), session in self._sessions.items():
            statistics = session.statistics
            entry = {
                "catalog": catalog,
                "seed": seed,
                "recommend_calls": statistics.recommend_calls,
                "retunes_accepted": statistics.retunes_accepted,
                "retunes_rejected": statistics.retunes_rejected,
                "age_seconds": now - session.created_at,
                "last_recommend_at": session.last_recommend_at,
                "last_retune_at": session.last_retune_at,
                "watching": (catalog, seed) in self._watchers,
            }
            watcher = self._watchers.get((catalog, seed))
            if watcher is not None:
                # Feed health of the attached online tuner: silently skipped
                # lines and poll-cycle latency, same numbers as watch_stats.
                entry["watch"] = {
                    "malformed_lines": watcher.source.statistics.malformed_lines,
                    "statements_ingested": watcher.source.statistics.statements_parsed,
                    "poll_count": watcher.poll_count,
                    "poll_seconds_total": watcher.poll_seconds_total,
                    "last_poll_seconds": watcher.last_poll_seconds,
                }
            overview.append(entry)
        return overview

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _error_response(
        request_id: Any, op: Optional[str], error: Exception
    ) -> Dict[str, Any]:
        return {
            "id": request_id,
            "ok": False,
            "op": op,
            "error": {"type": type(error).__name__, "message": str(error)},
        }
