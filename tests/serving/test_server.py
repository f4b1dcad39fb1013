"""Tests for the mechanism server (in-process and over HTTP)."""

import asyncio
import random
from fractions import Fraction

import pytest

from repro.exceptions import ReproError
from repro.release.artifacts import (
    ArtifactSpec,
    ArtifactStore,
    compile_artifact,
)
from repro.serving import (
    HTTPServingClient,
    InProcessClient,
    MechanismServer,
)


@pytest.fixture()
def store(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(ArtifactSpec("geometric", 8, Fraction(1, 2)))
    store.get_or_compile(ArtifactSpec("geometric", 4, Fraction(1, 4)))
    store.get_or_compile(
        ArtifactSpec("optimal", 4, Fraction(1, 2), loss="absolute")
    )
    return store


def make_server(store, **kwargs):
    kwargs.setdefault("audit_rate", 0.0)
    kwargs.setdefault("seed", 11)
    server = MechanismServer(store, **kwargs)
    server.load_store()
    return server


def run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_needs_a_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        with pytest.raises(ReproError, match="artifact store"):
            MechanismServer(None)

    def test_load_store_loads_everything_verified(self, store):
        server = make_server(store)
        assert len(server.deployments) == 3
        assert all(d.verification.ok for d in server.deployments)

    def test_load_miss_is_an_error_not_a_compile(self, store):
        server = make_server(store)
        before = store.stats["compiles"]
        with pytest.raises(ReproError, match="repro compile"):
            server.load(ArtifactSpec("geometric", 100, Fraction(1, 3)))
        assert store.stats["compiles"] == before

    def test_load_is_idempotent(self, store):
        server = make_server(store)
        spec = ArtifactSpec("geometric", 8, Fraction(1, 2))
        assert server.load(spec) == server.load(spec)
        assert len(server.deployments) == 3

    def test_misfiled_artifact_neither_verifies_nor_loads(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        store = ArtifactStore(tmp_path / "artifacts")
        spec = ArtifactSpec("geometric", 8, Fraction(1, 2))
        store.get_or_compile(spec)
        foreign = store._entry_path(
            ArtifactSpec("geometric", 4, Fraction(1, 4)).key()
        )
        foreign.parent.mkdir(parents=True, exist_ok=True)
        store._entry_path(spec.key()).rename(foreign)
        store.clear_memory()
        (report,) = store.verify_all()
        assert (report.kind, report.failures) == (
            "geometric", ("entry filed under a foreign spec key",)
        )
        assert main(["cache", "verify", "--store", str(store.path)]) == 1
        assert "foreign spec key" in capsys.readouterr().err
        server = make_server(store)
        assert server.deployments == () and store.get(spec) is None

        async def go():
            return await InProcessClient(server).publish(
                user="gov", n=8, alpha="1/2", true_result=3
            )

        status, _ = run(go())
        assert status == 404

    def test_tampered_artifact_refused_at_load(self, store):
        artifact = compile_artifact("geometric", 3, Fraction(1, 2))
        artifact.kernel[0][0], artifact.kernel[0][1] = (
            artifact.kernel[0][1],
            artifact.kernel[0][0],
        )
        server = make_server(store)
        with pytest.raises(ReproError, match="verification"):
            server.load_artifact(artifact)


class TestPublish:
    def test_publish_round_trip(self, store):
        server = make_server(store)
        client = InProcessClient(server)

        async def go():
            return await client.publish(
                user="gov", n=8, alpha="1/2", true_result=3
            )

        status, body = run(go())
        assert status == 200
        assert 0 <= body["value"] <= 8
        assert body["alpha"] == "1/2"
        assert body["cumulative_alpha"] == "1/2"

    def test_optimal_deployment_served_by_spec_fields(self, store):
        server = make_server(store)
        client = InProcessClient(server)

        async def go():
            return await client.publish(
                user="gov", n=4, alpha="1/2", true_result=2,
                kind="optimal", loss="absolute",
            )

        status, body = run(go())
        assert status == 200
        assert 0 <= body["value"] <= 4

    def test_unknown_deployment_is_404_and_never_solves(self, store):
        server = make_server(store)
        client = InProcessClient(server)
        before = store.stats["compiles"]

        async def go():
            return await client.publish(
                user="gov", n=50, alpha="1/2", true_result=3
            )

        status, _ = run(go())
        assert status == 404
        assert store.stats["compiles"] == before
        assert server.metrics["not_found"] == 1

    def test_bad_payloads_are_400(self, store):
        server = make_server(store)

        async def go():
            return [
                await server.publish({}),  # no user
                await server.publish({"user": "g"}),  # no deployment
                await server.publish(
                    {"user": "g", "n": 8, "alpha": "zebra",
                     "true_result": 1}
                ),
                await server.publish(
                    {"user": "g", "n": 8, "alpha": "1/2",
                     "true_result": 99}  # out of range
                ),
                await server.publish(
                    {"user": "g", "n": 8, "alpha": "1/2",
                     "true_result": "many"}
                ),
            ]

        statuses = [status for status, _ in run(go())]
        assert statuses == [400] * 5
        assert server.metrics["bad_request"] == 5

    def test_budget_floor_gives_429_with_accounting(self, store):
        server = make_server(store, floor=Fraction(1, 4))
        client = InProcessClient(server)

        async def go():
            first = await client.publish(
                user="u", n=8, alpha="1/2", true_result=0
            )
            second = await client.publish(
                user="u", n=8, alpha="1/2", true_result=0
            )
            third = await client.publish(
                user="u", n=8, alpha="1/2", true_result=0
            )
            other = await client.publish(
                user="other", n=8, alpha="1/2", true_result=0
            )
            return first, second, third, other

        first, second, third, other = run(go())
        assert first[0] == 200 and second[0] == 200
        assert third[0] == 429
        assert third[1]["cumulative_alpha"] == "1/4"
        # Budgets are per-user: a fresh user is unaffected.
        assert other[0] == 200
        assert server.metrics["rejected_budget"] == 1

    def test_publishes_of_one_loop_turn_fuse_into_one_batch(self, store):
        server = make_server(store)
        client = InProcessClient(server)

        async def go():
            return await asyncio.gather(*(
                [client.publish(user=f"a{i}", n=8, alpha="1/2",
                               true_result=4) for i in range(10)]
                + [client.publish(user=f"b{i}", n=4, alpha="1/4",
                                  true_result=1) for i in range(10)]
            ))

        results = run(go())
        assert all(status == 200 for status, _ in results)
        # All 20 mixed n/alpha queries, started in one loop turn, went
        # through one fused gather.
        assert server.batcher.stats["batches"] == 1
        assert server.batcher.stats["max_batch"] == 20


async def _seeded_waves(server, seed=5):
    """Publish seeded waves of concurrent requests, some past the floor,
    one carrying an idempotency key that a later wave retries; returns
    every status, the final budgets and the replay count."""
    rng = random.Random(seed)
    keyed = {"user": "keyed", "n": 8, "alpha": "1/2", "true_result": 2,
             "idem": "wave-3"}
    statuses = []
    for wave in range(12):
        payloads = [
            {"user": f"u{rng.randrange(8)}", "n": 8, "alpha": "1/2",
             "true_result": rng.randrange(9)}
            for _ in range(rng.randrange(1, 9))
        ]
        if wave in (3, 9):
            payloads.insert(rng.randrange(len(payloads)), keyed)
        results = await asyncio.gather(*map(server.publish, payloads))
        statuses.append([status for status, _ in results])
    budgets = server.ledgers.budgets()
    await server.stop()
    return statuses, budgets, server.metrics["replayed"]


class TestOneFlushRule:
    def test_a_lone_publish_resolves_within_two_loop_turns(self, store):
        """Under window 0 its batch closes at the end of the turn it
        parked in, with no clock to wait out (the 2 ms default takes
        hundreds of turns)."""
        server = make_server(store, batch_window=0)

        async def go():
            turns = 0

            async def count_turns():
                nonlocal turns
                while True:
                    await asyncio.sleep(0)
                    turns += 1

            counter = asyncio.ensure_future(count_turns())
            await asyncio.sleep(0)  # the counter is running
            start = turns
            status, _ = await server.publish(
                {"user": "solo", "n": 8, "alpha": "1/2", "true_result": 3}
            )
            elapsed = turns - start
            counter.cancel()
            return status, elapsed

        status, elapsed = run(go())
        assert status == 200
        assert elapsed <= 2

    def test_batching_leaves_statuses_and_budgets_unchanged(
        self, store, tmp_path
    ):
        """The turn-end flush, the default 2 ms window and
        ``batch_max=1`` agree on every status and budget, on the memory
        and WAL books."""
        outcomes = {}
        for book in ("memory", "wal"):
            for mode, batching in (
                ("turn", {"batch_window": 0}), ("held", {}),
                ("unbatched", {"batch_max": 1}),
            ):
                if book == "wal":
                    batching["ledger_dir"] = tmp_path / f"ledger-{mode}"
                server = make_server(store, floor=Fraction(1, 64), **batching)
                outcomes[book, mode] = run(_seeded_waves(server))
        statuses, budgets, replayed = outcomes["memory", "turn"]
        assert 429 in sum(statuses, []) and replayed == 1
        assert all(
            outcome == (statuses, budgets, replayed)
            for outcome in outcomes.values()
        )


class TestRoutes:
    def test_healthz_artifacts_metrics_ledger(self, store):
        server = make_server(store)
        client = InProcessClient(server)

        async def go():
            await client.publish(user="gov", n=8, alpha="1/2", true_result=1)
            return (
                await client.get("/healthz"),
                await client.get("/artifacts"),
                await client.get("/metrics"),
                await client.get("/ledger/gov"),
                await client.get("/ledger/nobody"),
                await client.get("/nope"),
                await server.handle_request("PUT", "/publish"),
            )

        health, artifacts, metrics, ledger, missing, nope, put = run(go())
        assert health[0] == 200
        assert health[1]["status"] == "ok"
        assert health[1]["deployments"] == 3
        assert health[1]["ledger"]["backend"] == "memory"
        assert len(artifacts[1]["artifacts"]) == 3
        assert all(a["verified"] for a in artifacts[1]["artifacts"])
        assert metrics[1]["metrics"]["published"] == 1
        assert metrics[1]["users"] == 1
        assert ledger[0] == 200
        assert ledger[1]["cumulative_alpha"] == "1/2"
        assert missing[0] == 404
        assert nope[0] == 404
        assert put[0] == 405


class TestHTTP:
    def test_http_round_trip_keep_alive(self, store):
        server = make_server(store)

        async def go():
            await server.start(port=0)
            client = HTTPServingClient("127.0.0.1", server.port)
            try:
                publish = await client.publish(
                    user="web", n=8, alpha="1/2", true_result=5
                )
                # Second request rides the same keep-alive connection.
                health = await client.get("/healthz")
                bad = await client.request("POST", "/publish", {"user": 3})
            finally:
                await client.close()
                await server.stop()
            return publish, health, bad

        publish, health, bad = run(go())
        assert publish[0] == 200
        assert 0 <= publish[1]["value"] <= 8
        assert health[0] == 200
        assert health[1]["status"] == "ok"
        assert health[1]["deployments"] == 3
        assert bad[0] == 400

    def test_stop_is_idempotent(self, store):
        server = make_server(store)

        async def go():
            await server.start(port=0)
            await server.stop()
            await server.stop()

        run(go())


class TestAuditIntegration:
    def test_periodic_sweep_flags_injected_tamper(self, store, rng):
        # Load a deployment whose kernel serves alpha=7/8 while its spec
        # claims alpha=1/2 — through the explicit verify=False injection
        # port (load verification would have refused it).
        server = make_server(
            store, audit_rate=1.0, audit_every=1, audit_seed=5
        )
        honest = compile_artifact("geometric", 6, Fraction(7, 8))
        forged_spec = ArtifactSpec("geometric", 6, Fraction(1, 2))
        forged = type(honest)(
            forged_spec, honest.kernel, sampler=honest.sampler
        )
        index = server.load_artifact(forged, verify=False)
        client = InProcessClient(server)

        async def go():
            for batch in range(30):
                await asyncio.gather(*[
                    client.publish(
                        user=f"u{batch}-{i}", n=6, alpha="1/2",
                        true_result=int(rng.integers(0, 7)),
                    )
                    for i in range(100)
                ])

        run(go())
        flagged = server.auditor.flagged()
        assert any(f.key == forged_spec.key() for f in flagged)
        assert server.metrics["audit_flagged"] >= 1
        assert server.metrics["audit_sweeps"] >= 1
        assert index == 3


class TestRejectionThenCompaction:
    def test_restart_after_a_429_and_a_compaction(self, store, tmp_path):
        """A first charge refused at the floor leaves no state behind, so
        the compaction it precedes cannot brick the directory."""
        from repro.release.durable_ledger import (
            DurableLedger,
            verify_ledger_dir,
        )

        store.get_or_compile(ArtifactSpec("geometric", 8, Fraction(1, 8)))
        ledger_dir = tmp_path / "ledger"
        floor = Fraction(1, 4)

        async def life(ledger, publishes):
            server = make_server(store, ledger=ledger, floor=floor)
            client = InProcessClient(server)
            statuses = [
                (await client.publish(
                    user=user, n=8, alpha=alpha, true_result=3
                ))[0]
                for user, alpha in publishes
            ]
            views = [await client.get(f"/ledger/{u}") for u in ("x", "u")]
            state = (ledger.users(), ledger.budgets(), views)
            await server.stop()
            return statuses, state

        statuses, live = run(life(
            DurableLedger(ledger_dir, floor, snapshot_every=2),
            [("x", "1/8"), ("u", "1/2"), ("u", "1/2")],
        ))
        assert statuses == [429, 200, 200]
        assert verify_ledger_dir(ledger_dir)["ok"]
        assert (ledger_dir / "snapshot.json").exists()
        statuses, reopened = run(life(DurableLedger(ledger_dir), []))
        assert reopened == live
        users, budgets, (x, u) = reopened
        assert users == 1
        assert x[0] == 404
        assert (u[0], u[1]["releases"], u[1]["cumulative_alpha"]) == (
            200, 2, "1/4"
        )


class TestMalformedHTTP:
    """Framing the server cannot parse is a counted 400 that closes the
    connection — never an unhandled exception in the handler task."""

    LONG = b"a" * (70 * 1024)
    PUBLISH_56 = b'{"user": "gov", "n": 8, "alpha": "1/2", "true_result":3}'
    CASES = {
        "content-length-not-a-number":
            b"POST /publish HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        "content-length-negative":
            b"POST /publish HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        # Repeats that disagree leave the body's end unknown; framed by
        # either one, the publish would be served and charged.
        "content-length-repeated-differing":
            b"POST /publish HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 56\r\n\r\n" + PUBLISH_56,
        "content-length-repeated-differing-first-longer":
            b"POST /publish HTTP/1.1\r\nContent-Length: 56\r\n"
            b"Content-Length: 2\r\n\r\n" + PUBLISH_56,
        "request-line-over-64k": b"GET /" + LONG + b" HTTP/1.1\r\n\r\n",
        "header-line-over-64k":
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + LONG + b"\r\n\r\n",
        # Bodies are framed by Content-Length only: a chunked body would
        # otherwise be read as the next request line.
        "transfer-encoding-chunked":
            b"POST /publish HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
        "over-100-header-lines":
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_answers_400_and_closes(self, store, case):
        async def main():
            errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            server = make_server(store)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(self.CASES[case])
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await server.stop()
            return raw, errors, server.metrics["bad_request"]

        raw, errors, bad = run(main())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert b"error" in body
        assert errors == []
        assert bad == 1

    def test_one_hundred_header_lines_still_serve(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
                + b"".join(b"X-H%d: v\r\n" % i for i in range(99))
                + b"\r\n"
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await server.stop()
            return raw

        assert run(main()).startswith(b"HTTP/1.1 200 ")

    def test_identical_content_lengths_still_serve(self, store):
        async def main():
            server = make_server(store)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /publish HTTP/1.1\r\nConnection: close\r\n"
                b"Content-Length: 56\r\nContent-Length: 56\r\n\r\n"
                + self.PUBLISH_56
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await server.stop()
            return raw, server.metrics["published"]

        raw, published = run(main())
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert published == 1

    def test_an_escaping_exception_is_a_counted_500(self, store):
        """An exception past the charge answers 500 and closes; it counts
        under ``errors``, not ``published``, and never reaches the loop's
        exception handler."""

        def boom(request):
            raise RuntimeError("boom after the charge")

        async def main():
            errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            server = make_server(store)
            server._respond = boom
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            body = b'{"user": "hot", "n": 8, "alpha": "1/2", "true_result": 3}'
            writer.write(
                b"POST /publish HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body) + body
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            charged = server.ledgers.view("hot")
            await server.stop()
            return raw, errors, server, charged

        raw, errors, server, charged = run(main())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 500 ")
        assert b"Connection: close" in head
        assert b"boom after the charge" in body
        assert charged is not None and charged.releases == 1
        assert server.metrics["errors"] == 1
        assert server.metrics["published"] == 0
        assert server._status_counts == {500: 1}
        assert errors == []
