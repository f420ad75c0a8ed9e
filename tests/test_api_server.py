"""The asyncio TCP tuning server: protocol, sessions, drain semantics.

Each test boots an in-process :class:`TuningServer` on an ephemeral port
and drives it with real sockets (the stream-based
:class:`~repro.api.server.TuningClient`), so the whole path -- reader task,
per-session locks, thread-pool dispatch, drain-then-ack shutdown -- is
exercised exactly as ``repro serve --tcp`` runs it.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api.server import TuningClient, TuningServer


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(work, **server_kwargs):
    server = TuningServer(default_catalog="tpch", **server_kwargs)
    await server.start()
    try:
        return await work(server)
    finally:
        await server.stop()


class TestRoundTrips:
    def test_ping_echoes_id_and_op(self):
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as client:
                return await client.call("ping")

        response = run(_with_server(work))
        assert response["ok"] is True
        assert response["op"] == "ping"
        assert response["id"] == 1
        assert response["result"]["pong"] is True

    def test_recommend_and_evaluate(self):
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as client:
                recommend = await client.call("recommend")
                evaluate = await client.call("evaluate", {"indexes": []})
                return recommend, evaluate

        recommend, evaluate = run(_with_server(work))
        assert recommend["ok"], recommend
        assert recommend["result"]["selected_indexes"]
        assert evaluate["ok"], evaluate
        assert evaluate["result"]["total_cost"] > 0

    def test_malformed_line_answers_error_and_keeps_connection(self):
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as client:
                client._writer.write(b"this is not json\n")
                await client._writer.drain()
                error = await client.receive()
                alive = await client.call("ping")
                return error, alive

        error, alive = run(_with_server(work))
        assert error["ok"] is False
        assert error["id"] is None
        assert "not valid JSON" in error["error"]["message"]
        assert alive["ok"] is True

    def test_unknown_op_is_answered_not_fatal(self):
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as client:
                bad = await client.call("frobnicate")
                good = await client.call("ping")
                return bad, good

        bad, good = run(_with_server(work))
        assert bad["ok"] is False
        assert "unknown operation" in bad["error"]["message"]
        assert good["ok"] is True


class TestSessions:
    def test_named_session_survives_reconnect(self):
        """Warm state is keyed by session_id, not by connection."""
        async def work(server):
            async with TuningClient(
                "127.0.0.1", server.port, session_id="tenant-a"
            ) as client:
                first = await client.call("recommend")
            async with TuningClient(
                "127.0.0.1", server.port, session_id="tenant-a"
            ) as client:
                second = await client.call("recommend")
            return first, second

        first, second = run(_with_server(work))
        assert first["result"]["session"]["caches_built"] > 0
        assert second["result"]["session"]["caches_built"] == 0
        assert second["result"]["session"]["caches_reused"] > 0

    def test_anonymous_connections_get_private_sessions(self):
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as first:
                await first.call(
                    "add_queries",
                    {"queries": [{
                        "sql": "SELECT orders.o_orderkey FROM orders",
                        "name": "mine",
                    }]},
                )
                mine = await first.call("workload")
            async with TuningClient("127.0.0.1", server.port) as second:
                theirs = await second.call("workload")
            return mine, theirs

        mine, theirs = run(_with_server(work))
        names_mine = [q["name"] for q in mine["result"]["queries"]]
        names_theirs = [q["name"] for q in theirs["result"]["queries"]]
        assert "mine" in names_mine
        assert "mine" not in names_theirs

    def test_sessions_share_the_tier(self):
        async def work(server):
            async with TuningClient(
                "127.0.0.1", server.port, session_id="builder"
            ) as client:
                await client.call("recommend")
            async with TuningClient(
                "127.0.0.1", server.port, session_id="adopter"
            ) as client:
                warm = await client.call("recommend")
                stats = await client.call("server_stats")
            return warm, stats

        warm, stats = run(_with_server(work))
        assert warm["result"]["session"]["caches_built"] == 0
        assert warm["result"]["session"]["caches_shared"] > 0
        tier = stats["result"]["tier"]
        assert tier["cache_promotions"] > 0
        assert tier["cache_hits"] >= warm["result"]["session"]["caches_shared"]
        assert stats["result"]["sessions"] == 2


    def test_private_sessions_are_freed_on_disconnect(self):
        """20 anonymous connect/ping/close cycles leave only named sessions."""
        async def work(server):
            async with TuningClient(
                "127.0.0.1", server.port, session_id="tenant-a"
            ) as client:
                await client.call("ping")
            for _ in range(20):
                async with TuningClient("127.0.0.1", server.port) as client:
                    await client.call("ping")
            for _ in range(500):  # the server notices each close asynchronously
                if server.connections_active == 0:
                    break
                await asyncio.sleep(0.01)
            return server.connections_active, server.session_count

        active, held = run(_with_server(work))
        assert active == 0
        assert held == 1, "only the named session outlives its connection"


class TestDrainSemantics:
    def test_shutdown_during_pipelined_recommend_drains_first(self):
        """A shutdown racing a recommend never swallows the response."""
        async def work(server):
            client = TuningClient("127.0.0.1", server.port, session_id="drain")
            await client.connect()
            await client.send("recommend")
            await client.send("shutdown")
            responses = [await client.receive() for _ in range(3)]
            with pytest.raises(EOFError):
                await client.receive()
            await client.close()
            return responses

        recommend, shutdown, ack = run(_with_server(work))
        assert recommend["op"] == "recommend" and recommend["ok"], recommend
        assert recommend["result"]["selected_indexes"]
        assert shutdown["op"] == "shutdown" and shutdown["ok"]
        assert ack["id"] is None
        assert ack["result"]["reason"] == "shutdown"

    def test_eof_drains_buffered_requests_and_acks(self):
        """Half-closing after a burst still answers every request."""
        async def work(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for request_id in range(4):
                writer.write((json.dumps(
                    {"id": request_id, "op": "ping", "session_id": "eof"}
                ) + "\n").encode())
            await writer.drain()
            writer.write_eof()
            lines = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                lines.append(json.loads(line))
            writer.close()
            return lines

        lines = run(_with_server(work))
        assert len(lines) == 5  # 4 answers + the final ack
        assert [line["id"] for line in lines[:4]] == [0, 1, 2, 3]
        assert all(line["ok"] for line in lines[:4])
        assert lines[-1]["id"] is None
        assert lines[-1]["result"]["reason"] == "eof"

    def test_server_stop_acks_open_connections_with_signal_reason(self):
        """SIGTERM-path: live connections drain and get a final ack."""
        async def work(server):
            client = TuningClient("127.0.0.1", server.port)
            await client.connect()
            assert (await client.call("ping"))["ok"]
            stopper = asyncio.create_task(server.stop())
            ack = await asyncio.wait_for(client.receive(), timeout=10)
            await stopper
            await client.close()
            return ack

        ack = run(_with_server(work))
        assert ack["id"] is None
        assert ack["ok"] is True
        assert ack["result"]["reason"] == "signal"


class TestConcurrency:
    def test_concurrent_clients_are_answered_consistently(self):
        async def work(server):
            async def one(position):
                async with TuningClient(
                    "127.0.0.1", server.port, session_id=f"c{position}"
                ) as client:
                    response = await client.call("recommend")
                    assert response["ok"], response
                    return (
                        response["result"]["workload_cost_after"],
                        response["result"]["session"]["caches_built"],
                    )

            results = await asyncio.gather(*(one(i) for i in range(6)))
            stats = await _server_stats(server)
            return results, stats

        results, stats = run(_with_server(work))
        costs = {cost for cost, _ in results}
        assert len(costs) == 1, "all tenants must converge on one answer"
        builders = sum(1 for _, built in results if built > 0)
        # First-build-wins: concurrent initial recommends may each build,
        # but once the tier is warm nobody else does.
        assert builders >= 1
        assert stats["tier"]["caches_published"] >= 1


async def _server_stats(server):
    async with TuningClient("127.0.0.1", server.port) as client:
        response = await client.call("server_stats")
    return response["result"]
