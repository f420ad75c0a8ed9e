"""Command-line interface for the PINUM reproduction.

The CLI is a thin client of the session API (:mod:`repro.api.session`): each
subcommand creates a :class:`~repro.api.session.TuningSession` over the
requested catalog and drives it, so the CLI and library share one
implementation:

* ``explain``        -- optimize a SQL query and print the plan,
* ``recommend``      -- run the index advisor over a workload
  (``--selector`` picks the CELF-style lazy greedy loop or the ILP
  solver -- ``--selector ilp`` proves optimality within
  ``--gap``/``--time-limit``; ``--engine`` picks the cache evaluation
  engine -- the fused workload arena by default, ``scalar`` for the
  original per-slot walk),
* ``cache``          -- build the INUM/PINUM plan cache for a query and
  report its statistics (optionally saving it to JSON),
* ``cache-workload`` -- build the plan caches of a whole workload at once
  through the :class:`~repro.inum.workload_builder.WorkloadCacheBuilder`:
  ``--jobs N`` fans the per-query builds across a process pool, the
  memoizing what-if layer deduplicates identical optimizer probes, and
  ``--cache-dir`` persists the caches for later runs,
* ``serve``          -- the long-lived tuning service: newline-delimited
  JSON requests on stdin, responses on stdout, one warm session per catalog
  (see :mod:`repro.api.serve` for the protocol),
* ``watch``          -- the online self-tuning daemon: tail an NDJSON
  statement feed (``--follow trace.ndjson``), fold it into a sliding
  window, and re-tune the index configuration when the template mix
  drifts -- re-tunes are warm (delta cache builds only) and gated by
  transition costing (see :mod:`repro.online`).  Decisions stream to
  stdout as NDJSON events,
* ``metrics``        -- dump the process-wide metrics registry
  (:mod:`repro.obs`) as Prometheus text exposition or JSON, either for
  this process or scraped from a running ``serve --tcp`` server.

``recommend`` and ``watch`` accept ``--trace-out FILE`` to append every
recorded span tree as NDJSON (one span per line, children linked by
``parent_id``); ``serve --tcp --access-log`` logs one structured line per
request to stderr.

Examples::

    python -m repro explain --catalog tpch --sql \
        "SELECT nation.n_name FROM nation, region \
         WHERE nation.n_regionkey = region.r_regionkey ORDER BY nation.n_name"

    python -m repro recommend --catalog star --budget-gb 5 --max-candidates 120
    python -m repro cache --catalog star --query-number 4 --builder pinum
    python -m repro cache-workload --catalog star --jobs 4 --cache-dir .inum-cache
    echo '{"op": "recommend"}' | python -m repro serve --catalog tpch
    python -m repro watch --catalog star --follow trace.ndjson --idle-exit 5

The ``--cache-dir`` directory is a versioned
:class:`~repro.inum.serialization.CacheStore`::

    .inum-cache/
      <catalog fingerprint>/             one directory per catalog state
        <query fingerprint>.<builder>.json

Cache files are keyed by *fingerprints* of the catalog (schema, statistics,
permanent indexes) and of the query's canonical SQL, and each file records a
digest of the candidate-index set its access costs were collected for.
Changing the schema, refreshing statistics or changing the candidate set
makes the affected caches stale, so they are rebuilt instead of reused; a
second run of the *same* command against an unchanged catalog loads every
cache and spends zero optimizer calls.  ``recommend`` accepts the same
``--jobs``/``--cache-dir`` flags for its cache-backed cost models;
``recommend`` and ``cache-workload`` share one ``--max-candidates`` default
(:data:`~repro.advisor.candidates.DEFAULT_MAX_CANDIDATES`), so with the same
``--cache-dir`` they hit the same persistent cache keys out of the box.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.advisor import AdvisorOptions, CandidateGenerator
from repro.advisor.candidates import DEFAULT_MAX_CANDIDATES
from repro.api.serve import ServeFrontend
from repro.api.session import TuningSession
from repro.bench.harness import ExperimentTable
from repro.inum.serialization import save_cache
from repro.query import Query, parse_statement
from repro.util.errors import AdvisorError, ReproError
from repro.util.units import format_bytes, gigabytes
from repro.workloads import StarSchemaWorkload, build_tpch_like_catalog, builtin_catalog_factory


def _load_catalog(name: str, seed: int) -> tuple:
    """Return ``(catalog, builtin workload queries)`` for a built-in catalog."""
    if name == "star":
        workload = StarSchemaWorkload(seed=seed)
        return workload.catalog(), workload.queries()
    if name == "tpch":
        from repro.workloads.tpch_like import tpch_q5_like_query, tpch_small_join_query

        return build_tpch_like_catalog(), [tpch_q5_like_query(), tpch_small_join_query()]
    raise ReproError(f"unknown catalog {name!r} (expected 'star' or 'tpch')")


def _read_queries(args: argparse.Namespace, builtin: Sequence[Query]) -> List[Query]:
    """Statements from --sql/--sql-file, falling back to the built-in workload.

    Both flags accept DML (INSERT/UPDATE/DELETE) next to SELECT, so a
    ';'-separated file can describe a whole mixed read/write workload.
    """
    if getattr(args, "sql", None):
        return [parse_statement(args.sql, name="cli_query")]
    if getattr(args, "sql_file", None):
        with open(args.sql_file, "r", encoding="utf-8") as handle:
            text = handle.read()
        statements = [stmt.strip() for stmt in text.split(";") if stmt.strip()]
        return [parse_statement(stmt, name=f"file_q{i + 1}") for i, stmt in enumerate(statements)]
    if getattr(args, "query_number", None):
        return [builtin[args.query_number - 1]]
    return list(builtin)


def _parse_weights(pairs: Optional[Sequence[str]]) -> Optional[dict]:
    """``--weight name=2.0`` occurrences into a statement-weight mapping."""
    if not pairs:
        return None
    weights = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise ReproError(
                f"--weight expects NAME=WEIGHT, got {pair!r}"
            )
        try:
            weights[name] = float(value)
        except ValueError:
            raise ReproError(
                f"--weight {pair!r}: weight must be a number"
            ) from None
    return weights


def _ilp_overrides(args: argparse.Namespace) -> dict:
    """``--gap``/``--time-limit`` as AdvisorOptions overrides (when given)."""
    overrides = {}
    if getattr(args, "gap", None) is not None:
        overrides["ilp_gap"] = args.gap
    if getattr(args, "time_limit", None) is not None:
        overrides["ilp_time_limit"] = args.time_limit
    return overrides


def _build_session(args: argparse.Namespace, options: AdvisorOptions) -> TuningSession:
    """A session over the requested catalog, loaded with the requested queries."""
    catalog, builtin = _load_catalog(args.catalog, args.seed)
    queries = _read_queries(args, builtin)
    return TuningSession(
        catalog,
        queries,
        options=options,
        catalog_factory=functools.partial(builtin_catalog_factory, args.catalog, args.seed),
    )


@contextlib.contextmanager
def _trace_to_file(path: str) -> Iterator[None]:
    """Append every root span finished inside the block to ``path`` as NDJSON."""
    from repro.obs import get_tracer, write_spans_ndjson

    tracer = get_tracer()
    handle = open(path, "a", encoding="utf-8")

    def sink(span) -> None:
        write_spans_ndjson(span, handle)
        handle.flush()

    tracer.add_sink(sink)
    try:
        yield
    finally:
        tracer.remove_sink(sink)
        handle.close()


# -- subcommands ------------------------------------------------------------------


def _cmd_explain(args: argparse.Namespace) -> int:
    session = _build_session(args, AdvisorOptions())
    from repro.api.requests import ExplainRequest

    for query in session.queries:
        response = session.explain(
            ExplainRequest(query=query.name, disable_nestloop=args.disable_nestloop)
        )
        print(f"-- {response.query_name}")
        print(response.sql)
        print()
        print(response.plan)
        print(f"estimated cost: {response.cost:,.2f}")
        print()
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weight)
    session = _build_session(
        args,
        AdvisorOptions(
            space_budget_bytes=gigabytes(args.budget_gb),
            cost_model=args.cost_model,
            max_candidates=args.max_candidates,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            selector=args.selector,
            engine=args.engine,
            candidate_policy=args.candidate_policy,
            compress=getattr(args, "compress", False),
            statement_weights=weights,
            **_ilp_overrides(args),
        ),
    )
    queries = session.queries
    if weights:
        # The workload is fully known here, so a typo'd --weight name must
        # fail loudly instead of silently pricing the workload without it.
        unknown = sorted(set(weights) - {query.name for query in queries})
        if unknown:
            raise ReproError(
                f"--weight names unknown statements: {', '.join(unknown)} "
                f"(workload: {', '.join(query.name for query in queries)})"
            )
    if args.trace_out:
        from repro.api.requests import RecommendRequest

        with _trace_to_file(args.trace_out):
            result = session.recommend(RecommendRequest(trace=True)).result
    else:
        result = session.recommend().result
    print(f"workload          : {len(queries)} queries over catalog {args.catalog!r}")
    print(f"database size     : {format_bytes(session.catalog.database_size_bytes())}")
    print(f"cache preparation : {result.preparation_optimizer_calls} optimizer calls "
          f"({result.preparation_seconds:.2f}s, cost model {args.cost_model!r})")
    print(f"index selection   : {result.selection_candidate_evaluations} candidate / "
          f"{result.selection_query_evaluations} query evaluations "
          f"({result.selection_seconds:.2f}s, selector {result.selector!r}, "
          f"engine {result.engine!r})")
    print()
    print(result.summary())

    table = ExperimentTable(
        "Per-query estimated cost",
        ["query", "before", "after", "improvement"],
    )
    # Iterate the result's own keys: a --compress run tunes the folded view,
    # so its per-query rows are templates, not the raw workload statements.
    for name in result.per_query_cost_before:
        before = result.per_query_cost_before[name]
        after = result.per_query_cost_after[name]
        improvement = 0.0 if before == 0 else 100.0 * (1 - after / before)
        table.add_row(name, before, after, f"{improvement:.1f}%")
    table.print()
    if args.trace_out:
        print(f"trace             : spans appended to {args.trace_out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    session = _build_session(args, AdvisorOptions())
    generator = CandidateGenerator(session.catalog)
    table = ExperimentTable(
        f"Plan-cache construction ({args.builder})",
        ["query", "IOCs enumerated/kept", "optimizer calls", "cached plans",
         "access costs", "build (ms)"],
    )
    for query in session.queries:
        cache = session.build_query_cache(
            query, args.builder, candidates=generator.for_query(query)
        )
        stats = cache.build_stats
        table.add_row(
            query.name, stats.combinations_enumerated, stats.optimizer_calls_total,
            cache.entry_count, len(cache.access_costs), stats.seconds_total * 1000,
        )
        if args.save:
            path = f"{args.save}.{query.name}.json"
            save_cache(cache, path)
            print(f"saved cache for {query.name} to {path}")
    table.print()
    return 0


def _cmd_cache_workload(args: argparse.Namespace) -> int:
    session = _build_session(
        args,
        AdvisorOptions(
            max_candidates=args.max_candidates,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        ),
    )
    queries = session.queries
    result = session.build_workload_caches(
        args.builder,
        jobs=args.jobs,
        use_call_cache=not args.no_call_cache,
    )
    report = result.report

    table = ExperimentTable(
        f"Workload cache construction ({args.builder}, jobs={args.jobs})",
        ["query", "source", "optimizer calls", "what-if hits",
         "cached plans", "access costs", "build (ms)"],
    )
    for query in queries:
        outcome = report.outcome_for(query.name)
        cache = result.caches[query.name]
        source = outcome.source
        if outcome.deduped_from is not None:
            source = f"deduplicated ({outcome.deduped_from})"
        calls = outcome.stats.optimizer_calls_total if outcome.source == "built" else 0
        hits = outcome.stats.whatif_cache_hits if outcome.source == "built" else 0
        table.add_row(
            query.name, source, calls, hits,
            cache.entry_count, len(cache.access_costs),
            outcome.stats.seconds_total * 1000 if outcome.source == "built" else 0.0,
        )
    table.print()

    print(f"workload        : {report.queries_total} queries "
          f"({report.queries_built} built, {report.queries_from_store} from store, "
          f"{report.queries_deduplicated} deduplicated)")
    print(f"optimizer calls : {report.optimizer_calls}")
    print(f"what-if cache   : {report.whatif_cache_hits} hits "
          f"({report.whatif_hit_rate * 100.0:.1f}% of probes)")
    print(f"wall clock      : {report.wall_seconds:.2f}s "
          f"(per-query build time {report.build_seconds:.2f}s)")
    store = session.store
    if store is not None:
        line = (f"cache store     : {store.catalog_dir} "
                f"({store.stored_count()} caches, {store.statistics.saves} saved this run")
        if store.statistics.stale_rejections:
            line += f", {store.statistics.stale_rejections} stale rejected"
        print(line + ")")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.online import FileTailSource, OnlineTuner, OnlineTunerConfig

    options = AdvisorOptions(
        space_budget_bytes=gigabytes(args.budget_gb),
        cost_model=args.cost_model,
        max_candidates=args.max_candidates,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        selector=args.selector,
        engine=args.engine,
        candidate_policy=args.candidate_policy,
        **_ilp_overrides(args),
    )
    # The daemon owns the workload: the session starts empty and receives
    # the window's templates at the first (bootstrap) tune.
    catalog, _ = _load_catalog(args.catalog, args.seed)
    session = TuningSession(
        catalog,
        [],
        options=options,
        catalog_factory=functools.partial(builtin_catalog_factory, args.catalog, args.seed),
    )
    overrides = {
        key: value
        for key, value in (
            ("window_statements", args.window),
            ("drift_metric", args.metric),
            ("drift_high_water", args.high_water),
            ("drift_low_water", args.low_water),
            ("horizon_statements", args.horizon),
            ("poll_interval_seconds", args.poll_interval),
            # --trace-out turns on per-poll root spans; the sink below
            # appends them to the file as each poll finishes.
            ("trace", True if args.trace_out else None),
        )
        if value is not None
    }
    config = OnlineTunerConfig(**overrides)
    source = FileTailSource(args.follow, start_at_end=not args.from_start)
    tuner = OnlineTuner(session, source, config)

    def emit(event: dict) -> None:
        print(json.dumps(event), flush=True)

    emit({"event": "watching", "follow": args.follow, "catalog": args.catalog,
          "config": config.to_dict()})
    with contextlib.ExitStack() as stack:
        if args.trace_out:
            stack.enter_context(_trace_to_file(args.trace_out))
        try:
            tuner.run(max_polls=args.max_polls, idle_exit_seconds=args.idle_exit,
                      on_event=emit)
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            pass
    emit({"event": "final", **tuner.statistics.to_dict()})
    return 0


def _parse_tcp_endpoint(value: str) -> Tuple[str, int]:
    """Split ``HOST:PORT`` (``:PORT`` defaults the host to localhost)."""
    host, separator, port_text = value.rpartition(":")
    if not separator or not port_text.isdigit():
        raise AdvisorError(
            f"--tcp expects HOST:PORT (e.g. 127.0.0.1:7683), got {value!r}"
        )
    return host or "127.0.0.1", int(port_text)


def _cmd_serve(args: argparse.Namespace) -> int:
    options = AdvisorOptions(
        space_budget_bytes=gigabytes(args.budget_gb),
        cost_model=args.cost_model,
        max_candidates=args.max_candidates,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        selector=args.selector,
        engine=args.engine,
        candidate_policy=args.candidate_policy,
        statement_weights=_parse_weights(args.weight),
        **_ilp_overrides(args),
    )
    if args.tcp is not None:
        import asyncio

        from repro.api.server import TuningServer

        host, port = _parse_tcp_endpoint(args.tcp)
        server = TuningServer(
            host,
            port,
            default_catalog=args.catalog,
            seed=args.seed,
            options=options,
            workers=args.workers,
            access_log=args.access_log,
        )

        def announce(event: dict) -> None:
            print(json.dumps(event), flush=True)

        asyncio.run(server.run(announce))
        return 0
    if args.access_log:
        raise AdvisorError("--access-log requires the --tcp transport")
    frontend = ServeFrontend(
        default_catalog=args.catalog,
        seed=args.seed,
        options=options,
    )
    return frontend.serve(sys.stdin, sys.stdout)


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.tcp is not None:
        import socket

        host, port = _parse_tcp_endpoint(args.tcp)
        request = json.dumps(
            {"id": 1, "op": "metrics", "params": {"format": args.format}}
        )
        with socket.create_connection((host, port), timeout=30.0) as connection:
            connection.sendall((request + "\n").encode("utf-8"))
            with connection.makefile("r", encoding="utf-8") as reader:
                line = reader.readline()
        if not line:
            raise ReproError(f"metrics server at {args.tcp} closed without answering")
        response = json.loads(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ReproError(
                f"metrics request failed: {error.get('message', response)}"
            )
        result = response["result"]
    else:
        # Importing the catalog registers every family the stack declares,
        # so even a fresh process renders the full HELP/TYPE inventory.
        import repro.obs.instruments  # noqa: F401
        from repro.obs import render_prometheus, snapshot

        if args.format == "prometheus":
            result = {"format": "prometheus", "exposition": render_prometheus()}
        else:
            result = {"format": "json", **snapshot()}
    if result.get("format") == "prometheus":
        sys.stdout.write(result["exposition"])
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PINUM reproduction: optimizer, plan caches and index advisor.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--catalog", choices=["star", "tpch"], default="star",
                         help="built-in catalog to run against")
        sub.add_argument("--seed", type=int, default=7, help="workload generator seed")
        sub.add_argument("--sql", help="a single SQL query text")
        sub.add_argument("--sql-file", help="file with ';'-separated SQL queries")
        sub.add_argument("--query-number", type=int,
                         help="pick one query of the built-in workload (1-based)")

    def add_tuning_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--budget-gb", type=float, default=5.0,
                         help="index space budget in GiB (paper: 5)")
        sub.add_argument("--cost-model", choices=["pinum", "inum", "optimizer"],
                         default="pinum", help="benefit oracle for the greedy search")
        sub.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES,
                         help="cap on the candidate-index set (shared default with "
                              "cache-workload so both hit the same cache-store keys)")
        sub.add_argument("--jobs", type=int, default=1,
                         help="process-pool width for the per-query cache builds")
        sub.add_argument("--cache-dir",
                         help="persistent cache-store directory reused across runs")
        sub.add_argument("--selector", choices=["lazy", "ilp"],
                         default="lazy",
                         help="index-selection search: the CELF-style lazy greedy "
                              "loop (the paper's greedy picks, far fewer "
                              "evaluations) or the CoPhy-style ILP solver "
                              "(provably optimal within --gap/--time-limit, never "
                              "worse than lazy)")
        sub.add_argument("--gap", type=float, default=None, metavar="FRACTION",
                         help="relative optimality gap the ilp selector may stop at "
                              "(default 0: prove optimality)")
        sub.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                         help="wall-clock budget for the ilp solver; on expiry the "
                              "best selection found so far is returned with its "
                              "proven gap (default 60)")
        sub.add_argument("--engine", choices=["arena", "scalar"], default="arena",
                         help="cache evaluation engine: the fused workload arena "
                              "(numpy-vectorized when available) or the original "
                              "scalar walk")
        sub.add_argument("--candidate-policy", choices=["workload", "per_query"],
                         default="workload",
                         help="candidate generation: one workload-wide pool (the "
                              "paper's arrangement) or per-query candidate sets "
                              "(incremental re-tuning on workload changes)")
        sub.add_argument("--weight", action="append", metavar="NAME=WEIGHT",
                         help="execution-frequency weight for one statement "
                              "(repeatable); mixed read/write workloads use this "
                              "to scale index-maintenance charges")

    explain = subparsers.add_parser("explain", help="optimize a query and print its plan")
    add_common(explain)
    explain.add_argument("--disable-nestloop", action="store_true",
                         help="plan without nested-loop joins (enable_nestloop=off)")
    explain.set_defaults(handler=_cmd_explain)

    recommend = subparsers.add_parser("recommend", help="run the greedy index advisor")
    add_common(recommend)
    add_tuning_options(recommend)
    recommend.add_argument("--compress", action="store_true",
                           help="fold the workload by statement template before "
                                "tuning: one weighted representative per template "
                                "(literals -> parameter markers), so a large trace "
                                "costs one cache build per distinct template")
    recommend.add_argument("--trace-out", metavar="FILE", default=None,
                           help="record a span trace of the recommend call and "
                                "append it to FILE as NDJSON (one span per line, "
                                "children linked by parent_id)")
    recommend.set_defaults(handler=_cmd_recommend)

    cache = subparsers.add_parser("cache", help="build a plan cache and report statistics")
    add_common(cache)
    cache.add_argument("--builder", choices=["pinum", "inum"], default="pinum",
                       help="which builder fills the cache")
    cache.add_argument("--save", help="path prefix for saving the cache(s) as JSON")
    cache.set_defaults(handler=_cmd_cache)

    workload = subparsers.add_parser(
        "cache-workload",
        help="build every workload query's plan cache (parallel, memoized, persistent)",
    )
    add_common(workload)
    workload.add_argument("--builder", choices=["pinum", "inum"], default="pinum",
                          help="which per-query builder fills the caches")
    workload.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES,
                          help="cap on the candidate-index set (shared default with "
                               "recommend so both hit the same cache-store keys)")
    workload.add_argument("--jobs", type=int, default=1,
                          help="process-pool width (1 = serial with a shared what-if cache)")
    workload.add_argument("--cache-dir",
                          help="persistent cache-store directory reused across runs")
    workload.add_argument("--no-call-cache", action="store_true",
                          help="disable the memoizing what-if layer (baseline behaviour)")
    workload.set_defaults(handler=_cmd_cache_workload)

    serve = subparsers.add_parser(
        "serve",
        help="serve tuning requests as newline-delimited JSON over stdin/stdout",
    )
    serve.add_argument("--catalog", choices=["star", "tpch"], default="star",
                       help="default catalog served (requests may name others)")
    serve.add_argument("--seed", type=int, default=7, help="workload generator seed")
    transport = serve.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio", action="store_true",
        help="serve one client over stdin/stdout (the default transport)")
    transport.add_argument(
        "--tcp", metavar="HOST:PORT", default=None,
        help="serve many concurrent clients over TCP (port 0 binds an "
             "ephemeral port, announced as a JSON line on stdout); sessions "
             "share one read-only cache tier")
    serve.add_argument(
        "--workers", type=int, default=None,
        help="thread-pool size for --tcp (cross-session parallelism cap)")
    serve.add_argument(
        "--access-log", action="store_true",
        help="with --tcp: log one structured JSON line per request to stderr "
             "(session_id, op, status, duration_ms, trace_id)")
    add_tuning_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    watch = subparsers.add_parser(
        "watch",
        help="tail an NDJSON statement feed and re-tune on workload drift",
    )
    watch.add_argument("--catalog", choices=["star", "tpch"], default="star",
                       help="built-in catalog the feed's statements run against")
    watch.add_argument("--seed", type=int, default=7, help="workload generator seed")
    watch.add_argument("--follow", required=True, metavar="FILE",
                       help="NDJSON statement feed to tail (may not exist yet)")
    watch.add_argument("--from-start", action="store_true",
                       help="replay the file's existing content before tailing "
                            "(default: watch new lines only)")
    # Daemon knob defaults live on OnlineTunerConfig; None = not overridden.
    watch.add_argument("--window", type=int, default=None, metavar="N",
                       help="sliding-window size in statements (default 200)")
    watch.add_argument("--metric", choices=["total_variation", "jensen_shannon"],
                       default=None,
                       help="drift metric between the reference and current "
                            "template distributions (default total_variation)")
    watch.add_argument("--high-water", type=float, default=None, metavar="DRIFT",
                       help="fire a re-tune when drift exceeds this (default 0.35)")
    watch.add_argument("--low-water", type=float, default=None, metavar="DRIFT",
                       help="re-arm the detector when drift falls below this "
                            "(default 0.15)")
    watch.add_argument("--horizon", type=int, default=None, metavar="STATEMENTS",
                       help="future executions a new configuration may amortize "
                            "its index builds over (default 10000)")
    watch.add_argument("--poll-interval", type=float, default=None, metavar="SECONDS",
                       help="how often to poll the feed (default 0.25)")
    watch.add_argument("--max-polls", type=int, default=None,
                       help="stop after this many polls (default: run until "
                            "interrupted or idle)")
    watch.add_argument("--idle-exit", type=float, default=None, metavar="SECONDS",
                       help="exit after this long without new statements "
                            "(default: keep waiting)")
    watch.add_argument("--trace-out", metavar="FILE", default=None,
                       help="record a span trace of every poll cycle and append "
                            "it to FILE as NDJSON")
    add_tuning_options(watch)
    # A watched session's workload churns template-by-template; per_query
    # keeps every re-tune's cache builds to exactly the never-seen delta.
    watch.set_defaults(handler=_cmd_watch, candidate_policy="per_query")

    metrics = subparsers.add_parser(
        "metrics",
        help="dump the process-wide metrics registry (Prometheus text or JSON)",
    )
    metrics.add_argument("--format", choices=["prometheus", "json"],
                         default="prometheus",
                         help="Prometheus text exposition (default) or the JSON "
                              "snapshot with interpolated histogram quantiles")
    metrics.add_argument("--tcp", metavar="HOST:PORT", default=None,
                         help="scrape a running 'repro serve --tcp' server "
                              "instead of this (fresh) process")
    metrics.set_defaults(handler=_cmd_metrics)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
