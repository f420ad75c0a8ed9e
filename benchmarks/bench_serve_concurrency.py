"""Concurrent serve load test: N clients against one warm shared-tier server.

The concurrent server's pitch (ISSUE 6) is that N tenants over one catalog
share a single read-only cache tier -- so the *first* session pays the plan
-cache builds and every later session's ``recommend`` is selection-only --
and that per-session serialization still lets different sessions overlap on
the thread pool.  This harness measures exactly that against a real
``repro serve --tcp`` subprocess:

* **warm** -- one client recommends once, publishing the catalog's plan
  caches and compiled layouts into the shared tier,
* **serial baseline** -- one client plays the full request mix alone
  (sequential round-trips; the throughput a stdio pipe would give),
* **concurrent** -- ``N`` clients, each with a private ``session_id``,
  play the same mix at once; per-request latencies give p50/p99.

Asserted: zero protocol errors, every response well-formed (echoed id,
``ok`` true), zero cache builds across all measured sessions (the shared
-tier memory proof: only the warm session built), and -- on hosts with >= 3
cores, where the thread pool can actually overlap sessions -- concurrent
throughput >= 5x the serial baseline (>= 2x in ``--quick`` mode).

Two entry points:

* pytest (the CI bench-smoke path)::

      pytest benchmarks/bench_serve_concurrency.py --benchmark-only -s

* standalone (the CI serve-load job; writes a mergeable JSON)::

      python benchmarks/bench_serve_concurrency.py --quick --output BENCH_serve.json

Environment knobs: ``REPRO_BENCH_CLIENTS`` overrides the client count
(default 100, or 32 in quick mode); ``REPRO_BENCH_SERVE_QUICK=1`` puts the
pytest path into quick mode; ``REPRO_BENCH_SKIP_SERVE=1`` skips the pytest
test entirely (the CI serve-load job already ran the standalone form).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Per-client request mix after the initial recommend: cheap session ops
#: that a dashboard or editor plugin would issue continuously.
LIGHT_OPS: Tuple[Tuple[str, Optional[Dict[str, Any]]], ...] = (
    ("ping", None),
    ("workload", None),
    ("evaluate", {"indexes": []}),
    ("stats", None),
)

#: Every session recommends over the fused workload arena (PR 7): the first
#: session compiles and promotes it into the tier namespace; tenants 2..N
#: adopt it by fingerprint (asserted via the tier's arena counters).  The
#: arena engine needs no numpy (pure-Python fallback), so the no-numpy CI
#: leg runs the same mix.
RECOMMEND_PARAMS: Dict[str, Any] = {"engine": "arena"}


def _quick_default() -> bool:
    return os.environ.get("REPRO_BENCH_SERVE_QUICK", "") == "1"


def _client_count(quick: bool) -> int:
    override = os.environ.get("REPRO_BENCH_CLIENTS")
    if override is not None:
        return max(2, int(override))
    return 32 if quick else 100


def _requests_per_client(quick: bool) -> int:
    """Ops per client: one recommend plus rounds of the light mix."""
    rounds = 1 if quick else 3
    return 1 + rounds * len(LIGHT_OPS)


def _required_speedup(quick: bool) -> float:
    return 2.0 if quick else 5.0


def _speedup_asserted() -> bool:
    """Only hosts with >= 3 cores can overlap sessions meaningfully.

    Same convention as the parallel-construction benchmark: on 1-2 core
    hosts the GIL serializes the CPU-bound work, so the speedup is
    reported but not asserted.
    """
    return (os.cpu_count() or 1) >= 3


# -- server process ----------------------------------------------------------


def start_server(catalog: str = "tpch") -> Tuple[subprocess.Popen, str, int]:
    """Boot ``repro serve --tcp`` on an ephemeral port; parse the announce."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--tcp", "127.0.0.1:0", "--catalog", catalog],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    assert process.stdout is not None
    line = process.stdout.readline()
    if not line:
        stderr = process.stderr.read() if process.stderr else ""
        raise RuntimeError(f"server did not announce itself: {stderr}")
    announce = json.loads(line)
    assert announce.get("event") == "serving", announce
    return process, announce["host"], int(announce["port"])


def stop_server(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - hung server
        process.kill()
        process.wait(timeout=10)


# -- load generation ---------------------------------------------------------


async def _play_mix(
    client, quick: bool, latencies: List[float], problems: List[str]
) -> Dict[str, int]:
    """One client's full request sequence; returns its build counters."""
    built = shared = 0
    sequence: List[Tuple[str, Optional[Dict[str, Any]]]] = [
        ("recommend", dict(RECOMMEND_PARAMS))
    ]
    rounds = 1 if quick else 3
    for _ in range(rounds):
        sequence.extend(LIGHT_OPS)
    for op, params in sequence:
        started = time.perf_counter()
        response = await client.call(op, params)
        latencies.append(time.perf_counter() - started)
        if not response.get("ok"):
            problems.append(f"{op} failed: {response.get('error')}")
        elif response.get("op") != op or response.get("id") is None:
            problems.append(f"{op} malformed response: {response}")
        elif op == "recommend":
            session = response["result"]["session"]
            built += session["caches_built"]
            shared += session["caches_shared"]
    return {"caches_built": built, "caches_shared": shared}


async def _run_load(host: str, port: int, clients: int, quick: bool) -> Dict[str, Any]:
    from repro.api.server import TuningClient

    problems: List[str] = []

    # Warm: the only session allowed to build; it publishes into the tier.
    async with TuningClient(host, port, session_id="bench-warm") as warm:
        response = await warm.call("recommend", dict(RECOMMEND_PARAMS))
        if not response.get("ok"):
            raise RuntimeError(f"warm recommend failed: {response}")
        warm_builds = response["result"]["session"]["caches_built"]

    # Serial baseline: one client, sequential round-trips.
    serial_latencies: List[float] = []
    started = time.perf_counter()
    async with TuningClient(host, port, session_id="bench-serial") as serial:
        counters = await _play_mix(serial, quick, serial_latencies, problems)
    serial_seconds = time.perf_counter() - started
    serial_requests = len(serial_latencies)
    builds_measured = counters["caches_built"]
    shared_measured = counters["caches_shared"]

    # Concurrent: N clients at once, each with a private session.
    latencies: List[float] = []

    async def one_client(position: int) -> Dict[str, int]:
        async with TuningClient(host, port, session_id=f"bench-{position}") as client:
            return await _play_mix(client, quick, latencies, problems)

    started = time.perf_counter()
    results = await asyncio.gather(*(one_client(i) for i in range(clients)))
    wall_seconds = time.perf_counter() - started
    for counters in results:
        builds_measured += counters["caches_built"]
        shared_measured += counters["caches_shared"]

    async with TuningClient(host, port, session_id="bench-warm") as inspector:
        stats_response = await inspector.call("server_stats")
    tier = stats_response["result"]["tier"] if stats_response.get("ok") else {}

    total_requests = len(latencies)
    ordered = sorted(latencies)
    serial_throughput = serial_requests / max(serial_seconds, 1e-9)
    throughput = total_requests / max(wall_seconds, 1e-9)
    return {
        "clients": clients,
        "requests_per_client": _requests_per_client(quick),
        "total_requests": total_requests,
        "errors": len(problems),
        "problems": problems[:10],
        "wall_seconds": wall_seconds,
        "throughput_rps": throughput,
        "p50_ms": 1000 * statistics.median(ordered),
        "p99_ms": 1000 * ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
        "serial_throughput_rps": serial_throughput,
        "speedup_vs_serial": throughput / max(serial_throughput, 1e-9),
        "warm_builds": warm_builds,
        "builds_in_measured_sessions": builds_measured,
        "caches_shared_total": shared_measured,
        "tier": tier,
        "cpu_count": os.cpu_count() or 1,
        "quick": quick,
    }


def run_benchmark(quick: bool, clients: Optional[int] = None) -> Dict[str, Any]:
    """Boot a server, run the load, stop the server; returns the report."""
    effective_clients = clients if clients is not None else _client_count(quick)
    process, host, port = start_server()
    try:
        return asyncio.run(_run_load(host, port, effective_clients, quick))
    finally:
        stop_server(process)


def check_report(report: Dict[str, Any]) -> None:
    """The acceptance assertions shared by both entry points."""
    assert report["errors"] == 0, (
        f"{report['errors']} protocol errors, first: {report['problems']}"
    )
    # Memory proof: the warm session built everything; all measured
    # sessions adopted from the shared tier without building anything.
    assert report["warm_builds"] > 0, "warm session should have built the caches"
    assert report["builds_in_measured_sessions"] == 0, (
        f"measured sessions built {report['builds_in_measured_sessions']} caches; "
        "the shared tier should have answered them all"
    )
    assert report["caches_shared_total"] >= report["clients"], report
    # Arena proof: the warm session compiled and promoted the one fused
    # arena before any measured session started; everyone else adopted it
    # by fingerprint (0 arena rebuilds for tenants 2..N).
    tier = report.get("tier") or {}
    if "arena_promotions" in tier:
        assert tier["arena_promotions"] == 1, (
            f"expected exactly one arena compile (the warm session), "
            f"got {tier['arena_promotions']}"
        )
        assert tier["arena_hits"] >= report["clients"], tier
    assert report["throughput_rps"] >= 10, (
        f"throughput {report['throughput_rps']:.1f} req/s is implausibly low"
    )
    if _speedup_asserted():
        required = _required_speedup(report["quick"])
        assert report["speedup_vs_serial"] >= required, (
            f"concurrent throughput is only {report['speedup_vs_serial']:.2f}x the "
            f"serial baseline (required {required}x on a "
            f"{report['cpu_count']}-core host)"
        )


# -- pytest entry point ------------------------------------------------------


def test_concurrent_serve_shares_tier_and_scales(benchmark):
    """N concurrent clients: 0 duplicate builds, throughput over serial."""
    import pytest

    if os.environ.get("REPRO_BENCH_SKIP_SERVE") == "1":
        pytest.skip("serve-load CI job runs the standalone harness instead")
    quick = _quick_default() or os.environ.get("REPRO_BENCH_QUERIES") is not None
    report = benchmark.pedantic(run_benchmark, args=(quick,), rounds=1, iterations=1)
    benchmark.extra_info["serve_concurrency"] = report
    _print_report(report)
    check_report(report)


def _print_report(report: Dict[str, Any]) -> None:
    from repro.bench.harness import ExperimentTable

    table = ExperimentTable(
        f"Concurrent serve: {report['clients']} clients x "
        f"{report['requests_per_client']} requests (shared tier)",
        ["metric", "value"],
    )
    for metric in ("throughput_rps", "serial_throughput_rps", "speedup_vs_serial",
                   "p50_ms", "p99_ms", "errors", "warm_builds",
                   "builds_in_measured_sessions", "caches_shared_total"):
        table.add_row(metric, report[metric])
    table.print()


# -- standalone entry point (the CI serve-load job) --------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="32 clients, 1 light round (the CI floor is 2x)")
    parser.add_argument("--clients", type=int, default=None,
                        help="override the client count")
    parser.add_argument("--output", type=Path, default=None,
                        help="write/merge the report into this JSON file "
                             "under the 'serve_concurrency' key")
    args = parser.parse_args(argv)

    report = run_benchmark(args.quick, args.clients)
    _print_report(report)
    check_report(report)

    if args.output is not None:
        merged: Dict[str, Any] = {}
        if args.output.exists():
            merged = json.loads(args.output.read_text())
        merged["serve_concurrency"] = report
        args.output.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
