"""End-to-end observability tests: traces, /metrics, burn, batcher stats."""

import asyncio
import re
from fractions import Fraction

import pytest

from repro.obs import burn_rows_from_book
from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.serving import (
    HTTPServingClient,
    InProcessClient,
    MechanismServer,
    MicroBatcher,
)
from tests.obs.test_metrics import assert_valid_exposition


@pytest.fixture()
def store(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(ArtifactSpec("geometric", 8, Fraction(1, 2)))
    store.get_or_compile(ArtifactSpec("geometric", 4, Fraction(1, 4)))
    return store


def make_server(store, **kwargs):
    kwargs.setdefault("audit_rate", 0.0)
    kwargs.setdefault("seed", 11)
    server = MechanismServer(store, **kwargs)
    server.load_store()
    return server


def run(coro):
    return asyncio.run(coro)


def publish_payload(user="gov", **extra):
    payload = {"user": user, "n": 8, "alpha": "1/2", "true_result": 3}
    payload.update(extra)
    return payload


class TestTracedPublish:
    def test_one_trace_covers_charge_to_sample(self, store, tmp_path):
        """The acceptance criterion: a traced POST /publish yields one
        trace ID whose spans cover charge → fsync → flush → sample."""
        server = make_server(
            store,
            ledger_dir=tmp_path / "ledger",
            ledger_fsync="group",
            trace_rate=1.0,
            trace_seed=3,
        )
        client = InProcessClient(server)

        async def go():
            result = await client.publish(**publish_payload())
            await server.stop()
            return result

        status, body = run(go())
        assert status == 200
        trace_id = body["trace"]
        spans = server.telemetry.tracer.recent(100, trace=trace_id)
        names = {span["name"] for span in spans}
        assert {
            "server.publish",
            "ledger.charge",
            "wal.append",
            "wal.fsync",
            "batch.flush",
            "sampler.gather",
        } <= names
        # Every span of the request shares the one trace ID, and the
        # root publish span has no parent.
        assert all(span["trace"] == trace_id for span in spans)
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["server.publish"]

    def test_batch_spans_broadcast_to_all_traced_requests(self, store):
        server = make_server(store, trace_rate=1.0)
        client = InProcessClient(server)

        async def go():
            results = await asyncio.gather(*[
                client.publish(**publish_payload(user=f"u{i}"))
                for i in range(4)
            ])
            await server.stop()
            return results

        results = run(go())
        traces = {body["trace"] for _, body in results}
        assert len(traces) == 4
        flushes = server.telemetry.tracer.recent(100, name="batch.flush")
        assert {span["trace"] for span in flushes} == traces
        # One fused flush: a single shared span id across the broadcast.
        assert len({span["span"] for span in flushes}) == 1

    def test_rate_zero_adds_no_trace_key_or_spans(self, store):
        server = make_server(store)  # telemetry on, tracing off
        client = InProcessClient(server)

        async def go():
            result = await client.publish(**publish_payload())
            await server.stop()
            return result

        status, body = run(go())
        assert status == 200
        assert "trace" not in body
        assert server.telemetry.tracer.emitted == 0

    def test_trace_dir_written_on_stop(self, store, tmp_path):
        server = make_server(
            store, trace_rate=1.0, trace_dir=tmp_path / "traces"
        )
        client = InProcessClient(server)

        async def go():
            await client.publish(**publish_payload())
            await server.stop()

        run(go())
        log = tmp_path / "traces" / "trace.jsonl"
        assert log.is_file()
        assert "server.publish" in log.read_text()


class TestMetricsRoute:
    def test_json_stays_default(self, store):
        server = make_server(store)

        async def go():
            result = await server.handle_request("GET", "/metrics")
            await server.stop()
            return result

        status, body = run(go())
        assert status == 200
        assert "metrics" in body and "__raw__" not in body

    def test_prometheus_by_query_param_and_accept_header(self, store):
        server = make_server(store)
        client = InProcessClient(server)

        async def go():
            await client.publish(**publish_payload())
            await client.publish(**publish_payload(alpha="zebra"))
            by_param = await server.handle_request(
                "GET", "/metrics?format=prometheus"
            )
            by_header = await server.handle_request(
                "GET", "/metrics", headers={"accept": "text/plain"}
            )
            await server.stop()
            return by_param, by_header

        by_param, by_header = run(go())
        assert by_param[0] == 200 and by_header[0] == 200
        text = by_param[1]["__raw__"]
        assert by_param[1]["__content_type__"].startswith("text/plain")
        families = assert_valid_exposition(text)
        # Requests counted by route and status.
        requests = {
            (labels["route"], labels["status"]): value
            for name, labels, value in families["repro_requests_total"][
                "samples"
            ]
        }
        assert requests[("publish", "200")] == 1
        assert requests[("publish", "400")] == 1
        # Per-deployment latency histogram with at least one observation.
        latency = families["repro_publish_latency_seconds"]
        assert latency["type"] == "histogram"
        counts = [
            value
            for name, labels, value in latency["samples"]
            if name.endswith("_count")
        ]
        assert sum(counts) == 1

    def test_solver_layer_families_merged_into_scrape(self, store):
        # The store fixture compiled artifacts through the default
        # registry's artifact-store counters; the server scrape merges
        # that registry in.
        server = make_server(store)

        async def go():
            result = await server.handle_request(
                "GET", "/metrics?format=prometheus"
            )
            await server.stop()
            return result

        status, body = run(go())
        assert status == 200
        assert "repro_artifact_store_total" in body["__raw__"]

    def test_http_scrape_returns_prometheus_text(self, store):
        server = make_server(store)

        async def go():
            await server.start(port=0)
            client = HTTPServingClient("127.0.0.1", server.port)
            try:
                await client.publish(**publish_payload())
                status, body = await client.get(
                    "/metrics?format=prometheus"
                )
            finally:
                await client.close()
                await server.stop()
            return status, body

        status, body = run(go())
        assert status == 200
        assert_valid_exposition(body["__raw__"])


class TestTraceAndBurnRoutes:
    def test_trace_recent_filters(self, store):
        server = make_server(store, trace_rate=1.0)
        client = InProcessClient(server)

        async def go():
            _, body = await client.publish(**publish_payload())
            recent = await server.handle_request(
                "GET", f"/trace/recent?name=ledger.charge&limit=5"
            )
            by_trace = await server.handle_request(
                "GET", f"/trace/recent?trace={body['trace']}"
            )
            bad = await server.handle_request(
                "GET", "/trace/recent?limit=banana"
            )
            await server.stop()
            return body, recent, by_trace, bad

        body, recent, by_trace, bad = run(go())
        assert recent[0] == 200
        assert [s["name"] for s in recent[1]["spans"]] == ["ledger.charge"]
        assert recent[1]["emitted"] >= 4
        assert all(
            s["trace"] == body["trace"] for s in by_trace[1]["spans"]
        )
        assert bad[0] == 400

    @pytest.mark.parametrize("route", ["/obs/burn", "/trace/recent"])
    @pytest.mark.parametrize("limit", ["x", "-1", "", "1.5", "+2"])
    def test_a_bad_limit_is_a_400_before_any_walk(
        self, store, monkeypatch, route, limit
    ):
        """``limit`` is parsed first, as a non-negative integer: a bad
        one walks neither the users nor the span ring."""
        import repro.serving.server as server_module

        server = make_server(store, trace_rate=1.0)
        client = InProcessClient(server)
        calls = []
        real_walk = burn_rows_from_book
        real_recent = server.telemetry.tracer.recent
        monkeypatch.setattr(
            server_module, "burn_rows_from_book",
            lambda book: calls.append("walk") or real_walk(book),
        )
        monkeypatch.setattr(
            server.telemetry.tracer, "recent",
            lambda *a, **k: calls.append("recent") or real_recent(*a, **k),
        )

        async def go():
            await client.publish(**publish_payload())
            bad = await server.handle_request("GET", f"{route}?limit={limit}")
            good = await server.handle_request("GET", f"{route}?limit=0")
            await server.stop()
            return bad, good

        (status, body), (good_status, _) = run(go())
        assert status == 400 and "non-negative integer" in body["error"]
        assert good_status == 200
        assert len(calls) == 1  # the good request's one walk

    def test_obs_burn_ranks_users(self, store):
        server = make_server(store, floor=Fraction(1, 8))
        client = InProcessClient(server)

        async def go():
            for _ in range(2):
                await client.publish(**publish_payload(user="hot"))
            await client.publish(**publish_payload(user="cold"))
            result = await server.handle_request("GET", "/obs/burn")
            await server.stop()
            return result

        status, body = run(go())
        assert status == 200
        assert body["users"] == 2
        assert [row["user"] for row in body["rows"]] == ["hot", "cold"]
        assert body["rows"][0]["remaining_charges"] == 1
        # In-process the proximity dict keeps int keys (JSON transport
        # would stringify them; the obs CLI normalizes both).
        assert body["floor_proximity"][1] == 1

    def test_burn_gauges_in_scrape(self, store):
        server = make_server(store, floor=Fraction(1, 8))
        client = InProcessClient(server)

        async def go():
            await client.publish(**publish_payload(user="hot"))
            text = server.telemetry.registry.render()
            await server.stop()
            return text

        text = run(go())
        assert 'repro_user_spent_fraction{user="hot"}' in text
        assert 'repro_budget_users_near_floor{within="2"} 1' in text
        assert "repro_deployment_epsilon_spent" in text

    def test_scrapes_do_not_walk_the_users(self, store, tmp_path, monkeypatch):
        """After the first scrape, scrapes interleaved with publishes
        read the book's aggregates: no all-users read, no burn walk, and
        the same gauge values the walk gives."""
        import repro.serving.server as server_module
        from repro.obs.budget import burn_row, floor_proximity
        from repro.release.durable_ledger import DurableLedger

        floor = Fraction(1, 64)
        ledger = DurableLedger(tmp_path / "ledger", floor, fsync="off")
        server = make_server(store, ledger=ledger, floor=floor)
        client = InProcessClient(server)
        calls = []
        real_budgets, real_walk = ledger.budgets, burn_rows_from_book
        monkeypatch.setattr(
            ledger, "budgets",
            lambda: calls.append("budgets") or real_budgets(),
        )
        monkeypatch.setattr(
            server_module, "burn_rows_from_book",
            lambda book: calls.append("walk") or real_walk(book),
        )

        def gauges(text):
            near = {
                int(k): float(v) for k, v in re.findall(
                    r'repro_budget_users_near_floor\{within="(\d+)"\} (\S+)',
                    text,
                )
            }
            spent = {
                user: float(v) for user, v in re.findall(
                    r'repro_user_spent_fraction\{user="(\w+)"\} (\S+)', text
                )
            }
            return near, spent

        def reference():
            rows = sorted(
                (burn_row(b) for b in real_budgets()),
                key=lambda r: (-r.spent_fraction, r.user),
            )
            return (
                {k: float(v) for k, v in floor_proximity(rows).items()},
                {r.user: r.spent_fraction for r in rows[:10]},
            )

        async def go():
            for i in range(5):
                await client.publish(**publish_payload(user=f"u{i}"))
            server.telemetry.registry.render()  # the first scrape
            first = list(calls)
            seen = []
            for i in range(10):
                await client.publish(**publish_payload(user=f"u{i % 3}"))
                _, body = await server.handle_request(
                    "GET", "/metrics?format=prometheus"
                )
                seen.append((gauges(body["__raw__"]), reference()))
            await server.stop()
            return first, seen

        first, seen = run(go())
        assert calls == first == []
        for (near, spent), (want_near, want_spent) in seen:
            assert near == want_near
            assert {u: spent[u] for u in want_spent} == want_spent
        # u0 ends one charge from the floor, u1 and u2 two.
        assert seen[-1][0][0] == {1: 1.0, 2: 3.0, 4: 3.0, 8: 5.0}

    def test_users_who_leave_the_top_lose_their_series(self, store):
        """Three waves of 10 new users, each wave charged more than the
        last, one Prometheus scrape after each: the spent-fraction family
        holds exactly the current top 10, not every user ever in it."""
        server = make_server(store, floor=Fraction(1, 2**20))
        client = InProcessClient(server)
        family = server.telemetry.user_spent_fraction

        async def go():
            seen = []
            for wave in range(3):
                for i in range(10):
                    for _ in range(wave + 1):
                        await client.publish(
                            **publish_payload(user=f"w{wave}u{i}")
                        )
                _, body = await server.handle_request(
                    "GET", "/metrics?format=prometheus"
                )
                seen.append((
                    {values[0]: c.value for values, c in family.children()},
                    set(re.findall(
                        r'repro_user_spent_fraction\{user="(\w+)"\}',
                        body["__raw__"],
                    )),
                    dict(server.ledgers.burn_summary()[1]),
                ))
            await server.stop()
            return seen

        for wave, (series, scraped, top) in enumerate(run(go())):
            assert len(series) <= 10
            assert series == top
            assert scraped == set(top) == {f"w{wave}u{i}" for i in range(10)}

    def test_deep_budgets_do_not_blind_later_gauges(self, store):
        """A budget whose float underflows to 0.0 used to raise inside
        the collector and silently freeze every gauge after the burn
        gauges."""
        from repro.release.durable_ledger import MemoryLedgerBook

        floor = Fraction(1, 2**1100)
        book = MemoryLedgerBook(floor)
        for _ in range(1080):
            book.charge("deep", Fraction(1, 2))
        server = make_server(store, ledger=book, floor=floor)

        async def go():
            text = server.telemetry.registry.render()
            burn = await server.handle_request("GET", "/obs/burn")
            await server.stop()
            return text, burn

        text, (status, body) = run(go())
        assert 'repro_user_spent_fraction{user="deep"} 0.98181' in text
        assert "repro_serving_worker_ready 1" in text
        assert status == 200
        assert body["rows"][0]["remaining_charges"] == 20


class TestHealthz:
    def test_durable_ledger_health_fields(self, store, tmp_path):
        server = make_server(
            store, ledger_dir=tmp_path / "ledger", ledger_fsync="always"
        )
        client = InProcessClient(server)

        async def go():
            await client.publish(**publish_payload())
            health = await server.handle_request("GET", "/healthz")
            await server.stop()
            return health

        status, body = run(go())
        assert status == 200
        ledger = body["ledger"]
        assert ledger["backend"] == "durable"
        assert ledger["journal_bytes"] > 0
        assert ledger["seq"] >= 1
        assert ledger["fsyncs"] >= 1
        assert ledger["last_fsync_ms"] >= 0.0
        assert ledger["compactions"] == 0


class TestAuditEvents:
    def test_audit_findings_counted_and_always_traced(self, store):
        server = make_server(
            store, audit_rate=1.0, audit_every=1, audit_seed=5
        )
        client = InProcessClient(server)

        async def go():
            await asyncio.gather(*[
                client.publish(**publish_payload(user=f"u{i}"))
                for i in range(8)
            ])
            await server.stop()

        run(go())
        counter = server.telemetry.audit_findings
        total = sum(child.value for _, child in counter.children())
        assert total >= 1
        # Events bypass the (zero) sampling rate.
        events = server.telemetry.tracer.recent(10, name="audit.finding")
        assert len(events) >= 1
        assert "flagged" in events[0]["attrs"]


class TestBatcherStats:
    def run_batch(self, **kwargs):
        import numpy as np

        def execute(tables, rows):
            return np.asarray(rows)

        batcher = MicroBatcher(execute, **kwargs)

        async def go():
            await asyncio.gather(*[
                batcher.submit(0, i % 3) for i in range(5)
            ])

        run(go())
        return batcher

    def test_flush_reason_breakdown(self):
        batcher = self.run_batch(max_size=4)
        reasons = batcher.stats["flush_reasons"]
        assert reasons["max_size"] == 1
        assert reasons["deadline"] == 1
        assert reasons["close"] == 0
        assert batcher.stats["batches"] == 2

    def test_unbatched_mode_counts_size_flushes(self):
        batcher = self.run_batch(max_size=1)
        assert batcher.stats["flush_reasons"]["max_size"] == 5
        assert batcher.stats["batches"] == 5

    def test_occupancy_histogram_buckets(self):
        batcher = self.run_batch(max_size=4)
        occupancy = batcher.stats["occupancy"]
        assert occupancy["4"] == 1  # the size-triggered flush
        assert occupancy["1"] == 1  # the deadline flush of the leftover
        assert sum(occupancy.values()) == batcher.stats["batches"]

    def test_scrape_families_follow_stats(self, store):
        server = make_server(store, batch_max=4)
        client = InProcessClient(server)

        async def go():
            await asyncio.gather(*[
                client.publish(**publish_payload(user=f"u{i}"))
                for i in range(5)
            ])
            server.telemetry.registry.render()
            await server.stop()

        run(go())
        telemetry, stats = server.telemetry, server.batcher.stats
        flushes = {
            labels[0]: child.value
            for labels, child in telemetry.batch_flushes.children()
        }
        assert flushes == {"max_size": 1.0, "deadline": 1.0}
        assert telemetry.batch_size.count == stats["batches"] == 2
        assert telemetry.batch_size.quantile(1.0) == 4.0
