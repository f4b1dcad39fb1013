"""Client/server resilience: timeouts, retries, idempotency keys,
graceful drain, signal shutdown, and artifact quarantine."""

import asyncio
import json
import os
import signal
from fractions import Fraction

import pytest

from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.serving import (
    FlakyEndpoint,
    HTTPServingClient,
    InProcessClient,
    MechanismServer,
)


@pytest.fixture()
def store(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(ArtifactSpec("geometric", 8, Fraction(1, 2)))
    return store


def make_server(store, **kwargs):
    kwargs.setdefault("audit_rate", 0.0)
    kwargs.setdefault("seed", 11)
    server = MechanismServer(store, **kwargs)
    server.load_store()
    return server


def run(coro):
    return asyncio.run(coro)


class TestClientTimeout:
    def test_stalled_server_times_out_instead_of_hanging(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            shim = FlakyEndpoint("127.0.0.1", server.port, stall=10)
            await shim.start()
            client = HTTPServingClient(
                "127.0.0.1", shim.port,
                timeout=0.2, retries=0, seed=1,
            )
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    client.publish(
                        user="u", n=8, alpha="1/2", true_result=3
                    ),
                    5.0,  # the outer bound proves the inner timeout fired
                )
            await client.close()
            await shim.stop()
            await server.stop()

        run(main())

    def test_timeout_none_preserves_untimed_behavior(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            client = HTTPServingClient(
                "127.0.0.1", server.port, timeout=None, retries=0
            )
            status, _ = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            assert status == 200
            await client.close()
            await server.stop()

        run(main())


class TestClientRetry:
    def test_dropped_connections_are_retried(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            shim = FlakyEndpoint("127.0.0.1", server.port, drop=2)
            await shim.start()
            client = HTTPServingClient(
                "127.0.0.1", shim.port,
                timeout=2.0, retries=3, backoff=0.01, seed=5,
            )
            status, response = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            assert status == 200
            assert shim.connections == 3  # two drops + the success
            await client.close()
            await shim.stop()
            await server.stop()

        run(main())

    def test_retries_exhausted_raises_last_error(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            shim = FlakyEndpoint("127.0.0.1", server.port, drop=99)
            await shim.start()
            client = HTTPServingClient(
                "127.0.0.1", shim.port,
                timeout=1.0, retries=2, backoff=0.01, seed=5,
            )
            with pytest.raises(Exception):
                await client.request("GET", "/healthz")
            assert shim.connections == 3  # 1 + 2 retries
            await client.close()
            await shim.stop()
            await server.stop()

        run(main())

    def test_backoff_is_bounded_exponential_with_jitter(self):
        client = HTTPServingClient(
            "127.0.0.1", 1,
            backoff=0.1, backoff_max=0.5, seed=42,
        )
        twin = HTTPServingClient(
            "127.0.0.1", 1,
            backoff=0.1, backoff_max=0.5, seed=42,
        )
        delays = [client._backoff_delay(a) for a in range(6)]
        # deterministic under a seed:
        assert delays == [twin._backoff_delay(a) for a in range(6)]
        # jittered within [0.5, 1.0) of the exponential envelope:
        for attempt, delay in enumerate(delays):
            envelope = min(0.1 * (2 ** attempt), 0.5)
            assert 0.5 * envelope <= delay < envelope

    def test_swallowed_response_plus_retry_charges_once(self, store):
        """The scenario idempotency keys exist for: the server charged
        and answered, the response evaporated, the client retried."""

        async def main():
            server = make_server(store, floor=Fraction(1, 4))
            await server.start()
            shim = FlakyEndpoint("127.0.0.1", server.port, swallow=1)
            await shim.start()
            client = HTTPServingClient(
                "127.0.0.1", shim.port,
                timeout=0.3, retries=2, backoff=0.01, seed=9,
            )
            status, response = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            assert status == 200
            # one request attempt was swallowed after reaching the
            # server, so without the key the budget would read 1/4:
            assert server.metrics["replayed"] == 1
            budget = server.ledgers.view("u")
            assert budget.cumulative_alpha == Fraction(1, 2)
            assert budget.releases == 1
            await client.close()
            await shim.stop()
            await server.stop()

        run(main())

    def test_explicit_idem_key_overrides_generated(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            client = HTTPServingClient("127.0.0.1", server.port, seed=2)
            first = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="fixed"
            )
            second = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="fixed"
            )
            assert first == second  # replayed verbatim
            assert server.ledgers.view("u").releases == 1
            await client.close()
            await server.stop()

        run(main())


class TestGracefulDrain:
    def test_stop_waits_for_inflight_then_closes_keepalive(self, store):
        async def main():
            server = make_server(store, drain_deadline=2.0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            body = json.dumps(
                {"user": "u", "n": 8, "alpha": "1/2", "true_result": 3}
            ).encode()
            writer.write(
                b"POST /publish HTTP/1.1\r\n"
                b"Content-Length: %d\r\n"
                b"Connection: keep-alive\r\n\r\n" % len(body) + body
            )
            await writer.drain()
            stop = asyncio.create_task(server.stop())
            status_line = await asyncio.wait_for(reader.readline(), 2.0)
            assert b"200" in status_line
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), 2.0
            )
            # a draining server refuses to keep the connection alive:
            assert b"Connection: close" in head
            await asyncio.wait_for(stop, 5.0)
            assert not server._connections
            writer.close()

        run(main())

    def test_stop_is_idempotent_and_syncs_ledger(self, store, tmp_path):
        async def main():
            server = make_server(
                store, floor=Fraction(1, 16),
                ledger_dir=tmp_path / "ledger",
            )
            client = InProcessClient(server)
            status, _ = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            assert status == 200
            await server.stop()
            await server.stop()  # second stop must be a no-op
            # budgets made it to disk:
            from repro.release.durable_ledger import verify_ledger_dir

            report = verify_ledger_dir(tmp_path / "ledger")
            assert report["ok"]
            assert report["users"] == 1

        run(main())

    def test_idle_keepalive_connection_is_cancelled_at_deadline(
        self, store
    ):
        async def main():
            server = make_server(store, drain_deadline=0.1)
            await server.start()
            # park an idle keep-alive connection (no request in flight)
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await asyncio.sleep(0.02)
            assert len(server._connections) == 1
            await asyncio.wait_for(server.stop(), 3.0)
            assert not server._connections
            writer.close()

        run(main())

    def test_sigterm_triggers_graceful_drain(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            serve = asyncio.create_task(
                server.serve_forever(install_signal_handlers=True)
            )
            await asyncio.sleep(0.05)
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(serve, 5.0)
            assert server._stopped

        run(main())

    def test_request_shutdown_unblocks_serve_forever(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            serve = asyncio.create_task(server.serve_forever())
            await asyncio.sleep(0.02)
            server.request_shutdown()
            await asyncio.wait_for(serve, 5.0)
            assert server._stopped

        run(main())


class TestQuarantine:
    def test_bad_artifact_quarantined_not_fatal(self, store, tmp_path):
        # Tamper one stored entry on disk — with a recomputed digest, so
        # it structurally *loads* but fails load-time verification (the
        # digest-mismatch case is already skipped as damaged).
        from repro.release.artifacts import _payload_digest

        spec = ArtifactSpec("geometric", 4, Fraction(1, 4))
        store.get_or_compile(spec)
        entry = store._entry_path(spec.key())
        payload = json.loads(entry.read_text())
        kernel = payload["kernel"]
        kernel[0][0], kernel[0][1] = kernel[0][1], kernel[0][0]
        payload["digest"] = _payload_digest(payload)
        entry.write_text(json.dumps(payload))

        async def main():
            server = MechanismServer(store, audit_rate=0.0, seed=11)
            loaded = server.load_store()
            assert loaded == 1  # the healthy artifact
            assert len(server.quarantined) == 1
            client = InProcessClient(server)
            # the quarantined deployment 503s with the reason:
            status, response = await client.publish(
                user="u", n=4, alpha="1/4", true_result=1
            )
            assert status == 503
            assert "quarantined" in response["error"]
            assert server.metrics["quarantined_requests"] == 1
            # the healthy deployment keeps serving:
            status, _ = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            assert status == 200
            # and /artifacts lists the quarantine:
            status, listing = await client.get("/artifacts")
            assert status == 200
            assert len(listing["quarantined"]) == 1
            assert listing["quarantined"][0]["n"] == 4
            await server.stop()

        run(main())
