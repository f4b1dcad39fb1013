"""Overload protection: admission control, brownout, WAL circuit breaker.

The load-bearing invariant everywhere below: a shed or breaker-rejected
request spends **zero** budget — the gate runs strictly before any
ledger interaction, so the ledger's release count equals the number of
200s, exactly.
"""

import asyncio
from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger, verify_ledger_dir
from repro.serving import (
    AdmissionController,
    FaultInjector,
    FaultyFS,
    InProcessClient,
    MechanismServer,
    ShedDecision,
    WALCircuitBreaker,
    fsync_storm,
)

HALF = Fraction(1, 2)


@pytest.fixture()
def store(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(ArtifactSpec("geometric", 8, HALF))
    return store


def make_server(store, **kwargs):
    kwargs.setdefault("audit_rate", 0.0)
    kwargs.setdefault("seed", 11)
    server = MechanismServer(store, **kwargs)
    server.load_store()
    return server


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestAdmissionController:
    def test_capacity_bound_sheds_429(self):
        gate = AdmissionController(capacity=2)
        assert gate.try_admit() is None
        assert gate.try_admit() is None
        shed = gate.try_admit()
        assert isinstance(shed, ShedDecision)
        assert (shed.status, shed.reason) == (429, "queue_full")
        assert shed.retry_after > 0
        gate.release(0.01)
        assert gate.try_admit() is None
        assert gate.stats["admitted"] == 3
        assert gate.stats["shed_queue_full"] == 1
        assert gate.stats["peak_inflight"] == 2

    def test_inflight_never_exceeds_capacity(self):
        gate = AdmissionController(capacity=3)
        for _ in range(50):
            gate.try_admit()
            assert gate.inflight <= 3
        assert gate.stats["peak_inflight"] == 3

    def test_deadline_shed_uses_ewma_estimate(self):
        gate = AdmissionController(capacity=0, shed_deadline=0.05)
        # Teach the EWMA a 100ms service time, then hold one in flight.
        assert gate.try_admit() is None
        gate.release(0.1)
        assert gate.try_admit() is None
        assert gate.estimated_wait() == pytest.approx(0.1)
        shed = gate.try_admit()
        assert (shed.status, shed.reason) == (503, "deadline")
        assert shed.retry_after == pytest.approx(0.1)
        # Drain the queue: the estimate drops below the deadline again.
        gate.release(0.1)
        assert gate.try_admit() is None

    def test_request_deadline_tightens_the_server_one(self):
        gate = AdmissionController(capacity=0, shed_deadline=0.0)
        gate.try_admit()
        gate.release(0.2)
        gate.try_admit()
        # No server-wide deadline, but this request only has 50ms.
        shed = gate.try_admit(deadline=0.05)
        assert (shed.status, shed.reason) == (503, "deadline")
        # A patient request still gets in.
        assert gate.try_admit(deadline=10.0) is None

    def test_release_is_safe_without_an_admit(self):
        gate = AdmissionController(capacity=1)
        gate.release(0.01)
        assert gate.inflight == 0

    def test_brownout_trips_on_sustained_shedding_and_clears(self):
        gate = AdmissionController(
            capacity=1, brownout_threshold=0.5, brownout_window=4
        )
        assert gate.try_admit() is None  # occupy the only slot
        assert not gate.brownout
        for _ in range(4):
            gate.try_admit()  # all shed
        assert gate.brownout
        assert gate.stats["brownouts"] == 1
        gate.release(0.001)
        for _ in range(4):
            assert gate.try_admit() is None
            gate.release(0.001)
        assert not gate.brownout

    def test_snapshot_shape(self):
        gate = AdmissionController(capacity=8, shed_deadline=0.5)
        snap = gate.snapshot()
        assert snap["capacity"] == 8
        assert snap["inflight"] == 0
        assert snap["brownout"] is False
        assert "service_ewma_ms" in snap

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": -1},
            {"shed_deadline": -0.5},
            {"brownout_threshold": 0.0},
            {"brownout_threshold": 1.5},
            {"brownout_window": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            AdmissionController(**kwargs)


class TestWALCircuitBreaker:
    def test_trip_probe_reset_cycle(self):
        clock = FakeClock()
        breaker = WALCircuitBreaker(policy="reject", cooldown=1.0, clock=clock)
        assert not breaker.open
        assert not breaker.should_probe()
        breaker.trip("injected ENOSPC")
        assert breaker.open and breaker.trips == 1
        assert breaker.retry_after() == pytest.approx(1.0)
        # Within the cooldown: no probe granted.
        clock.now = 0.5
        assert not breaker.should_probe()
        clock.now = 1.0
        assert breaker.should_probe()
        # Only one probe per window.
        assert not breaker.should_probe()
        breaker.reset()
        assert not breaker.open
        assert breaker.recoveries == 1
        assert breaker.retry_after() == 0.0

    def test_retrip_while_open_does_not_double_count(self):
        breaker = WALCircuitBreaker(policy="memory", cooldown=0.1)
        breaker.trip("first")
        breaker.trip("second")
        assert breaker.trips == 1
        assert breaker.reason == "second"

    def test_validation(self):
        with pytest.raises(ValidationError):
            WALCircuitBreaker(policy="yolo")
        with pytest.raises(ValidationError):
            WALCircuitBreaker(cooldown=0.0)

    def test_snapshot(self):
        breaker = WALCircuitBreaker(policy="reject", cooldown=0.5)
        breaker.trip("EIO")
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["policy"] == "reject"
        assert snap["reason"] == "EIO"


class TestServerSheds:
    """Admission control on the live publish path (in-process)."""

    def test_shed_is_429_with_retry_after_and_zero_charge(self, store):
        # A wide batch window parks admitted publishes in the batcher,
        # so concurrent requests genuinely contend for the queue.
        server = make_server(
            store, queue_depth=2, batch_window=0.05, floor=0
        )
        client = InProcessClient(server)

        async def go():
            results = await asyncio.gather(
                *(
                    client.publish(
                        user=f"u{i}", n=8, alpha="1/2", true_result=3
                    )
                    for i in range(6)
                )
            )
            await server.stop()
            return results

        results = run(go())
        by_status = {}
        for status, body in results:
            by_status.setdefault(status, []).append(body)
        assert len(by_status[200]) == 2
        assert len(by_status[429]) == 4
        for body in by_status[429]:
            assert body["shed"] == "queue_full"
            assert body["retry_after"] >= 0.01
            assert "cumulative_alpha" not in body
        # Zero budget spent by sheds: exactly one charge per 200.
        assert server.ledgers.users() == 2
        assert server.metrics["shed"] == 4
        assert server.admission.stats["admitted"] == 2

    def test_deadline_ms_sheds_503(self, store):
        server = make_server(store, shed_deadline=5.0, batch_window=0.01)
        # Teach the EWMA a slow service time and hold a slot.
        server.admission.release(2.0)
        server.admission.service_ewma = 2.0
        server.admission.inflight = 1
        client = InProcessClient(server)

        async def go():
            status, body = await server.publish(
                {
                    "user": "u",
                    "n": 8,
                    "alpha": "1/2",
                    "true_result": 3,
                    "deadline_ms": 100,
                }
            )
            # The same request without the tight deadline is admitted
            # (estimated wait 2s < server-wide 5s).
            server.admission.inflight = 0
            ok_status, _ = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            await server.stop()
            return status, body, ok_status

        status, body, ok_status = run(go())
        assert status == 503
        assert body["shed"] == "deadline"
        assert ok_status == 200

    def test_retry_after_header_on_the_wire(self, store):
        server = make_server(store, queue_depth=1, batch_window=0.05)

        async def one_request(idx):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            body = (
                b'{"user": "u%d", "n": 8, "alpha": "1/2", '
                b'"true_result": 3}' % idx
            )
            head = (
                f"POST /publish HTTP/1.1\r\nHost: t\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            writer.write(head + body)
            await writer.drain()
            raw = await reader.read(65536)
            writer.close()
            return raw

        async def go():
            await server.start()
            # Concurrent connections: the first publish parks in the
            # batcher window, the surplus must be shed with a
            # Retry-After header on the wire.
            raws = await asyncio.gather(
                *(one_request(i) for i in range(5))
            )
            await server.stop()
            return raws

        raws = run(go())
        texts = [raw.decode("latin-1").lower() for raw in raws]
        shed = [t for t in texts if " 429 " in t.split("\r\n", 1)[0]]
        assert shed, "expected at least one shed response"
        assert all("retry-after:" in t for t in shed)

    def test_brownout_sheds_audit_and_trace_work(self, store):
        server = make_server(
            store, queue_depth=1, batch_window=0.05,
            audit_rate=1.0, trace_rate=1.0,
        )
        server.admission.brownout_window = 4
        server.admission._window = [0] * 4
        client = InProcessClient(server)

        async def go():
            # Saturate: one admitted parks, a burst sheds, tripping the
            # 4-wide brownout window.
            results = await asyncio.gather(
                *(
                    client.publish(
                        user=f"u{i}", n=8, alpha="1/2", true_result=3
                    )
                    for i in range(8)
                )
            )
            await server.stop()
            return results

        results = run(go())
        assert any(status == 200 for status, _ in results)
        assert server.admission.stats["brownouts"] >= 1
        # Optional work was shed before user work: the skips are counted
        # (audit on the batch flush, trace on the sampled publish).
        assert server.metrics["brownout_skips"] >= 1

    def test_healthz_readyz_and_metrics_expose_admission(self, store):
        server = make_server(store, queue_depth=4, worker_id="w0")
        client = InProcessClient(server)

        async def go():
            health = await client.get("/healthz")
            ready = await client.get("/readyz")
            metrics = await client.get("/metrics")
            await server.stop()
            return health, ready, metrics

        (hs, health), (rs, ready), (ms, metrics) = run(go())
        assert hs == 200
        assert health["admission"]["capacity"] == 4
        assert health["breaker"]["state"] == "closed"
        assert health["worker"] == "w0"
        assert (rs, ready["ready"]) == (200, True)
        assert ready["worker"] == "w0"
        assert ms == 200
        assert metrics["admission"]["capacity"] == 4
        assert metrics["breaker"]["policy"] == "reject"

    def test_draining_server_is_not_ready(self, store):
        server = make_server(store)
        server._draining = True
        ready, reasons = server.readiness()
        assert not ready
        assert "draining" in reasons


def make_faulty_ledger_server(store, tmp_path, *, policy, after, times,
                              cooldown=0.05, **kwargs):
    """A server whose WAL fsyncs fail ``times`` times starting ``after``."""
    ledger_dir = tmp_path / "wal"
    DurableLedger(ledger_dir, HALF ** 8).close()  # settle meta cleanly
    faults = FaultInjector()
    fsync_storm(faults, after=after, times=times)
    ledger = DurableLedger(
        ledger_dir, HALF ** 8, fsync="always", fs=FaultyFS(faults)
    )
    kwargs.setdefault("audit_rate", 0.0)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("floor", HALF ** 8)
    server = MechanismServer(
        store, ledger=ledger, wal_failure_policy=policy,
        breaker_cooldown=cooldown, **kwargs
    )
    server.load_store()
    return server, ledger_dir


class TestWALBreakerOnServer:
    def test_reject_policy_refuses_then_recovers(self, store, tmp_path):
        server, ledger_dir = make_faulty_ledger_server(
            store, tmp_path, policy="reject-new-charges", after=1, times=2
        )
        client = InProcessClient(server)

        async def go():
            out = []
            s, _ = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="ok-1"
            )
            out.append(s)  # 200: fsync healthy
            s, body = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="boom"
            )
            out.append((s, body))  # the storm hits: 503, nothing spent
            s, body2 = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="boom2"
            )
            out.append((s, body2))  # breaker open: rejected pre-charge
            await asyncio.sleep(0.06)  # past the cooldown
            # First probe burns the storm's last injected failure...
            s, _ = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="probe1"
            )
            out.append(s)
            await asyncio.sleep(0.06)
            s, body3 = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="ok-2"
            )
            out.append((s, body3))
            await server.stop()
            return out

        out = run(go())
        assert out[0] == 200
        status, body = out[1]
        assert status == 503 and body["retry_after"] > 0
        status, body2 = out[2]
        assert status == 503
        assert body2.get("breaker") == "open"
        status, body3 = out[4]
        assert status == 200
        assert "durability" not in body3  # durable again, no alarm
        assert not server.breaker.open
        assert server.breaker.recoveries == 1
        assert server.metrics["breaker_rejected"] >= 1
        # Durable truth: only the acked charges are journaled.
        report = verify_ledger_dir(ledger_dir)
        assert report["ok"], report["failures"]
        recovered = DurableLedger(ledger_dir, HALF ** 8)
        assert recovered.view("u").cumulative_alpha >= HALF ** 3
        recovered.close()

    def test_memory_policy_keeps_serving_with_a_loud_alarm(
        self, store, tmp_path
    ):
        server, ledger_dir = make_faulty_ledger_server(
            store, tmp_path, policy="memory-mode-with-alarm",
            after=1, times=1,
        )
        client = InProcessClient(server)

        async def go():
            out = []
            s, _ = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            out.append((s, _))
            s, body = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            out.append((s, body))  # fsync fails -> volatile release
            health = await client.get("/healthz")
            ready = await client.get("/readyz")
            await asyncio.sleep(0.06)
            s, body2 = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            out.append((s, body2))  # probe recovers -> durable again
            ready_after = await client.get("/readyz")
            await server.stop()
            return out, health, ready, ready_after

        out, (_, health), (rstatus, ready), (rstatus2, _) = run(go())
        assert out[0][0] == 200
        status, body = out[1]
        assert status == 200
        assert body["durability"] == "volatile"
        assert health["durability"] == "volatile"
        assert health["breaker"]["state"] == "open"
        # Volatile mode serves but must NOT advertise readiness.
        assert rstatus == 503 and ready["ready"] is False
        status2, body2 = out[2]
        assert status2 == 200
        assert "durability" not in body2
        assert rstatus2 == 200
        # The outage window was backfilled: all three charges are in
        # the recovered durable ledger.
        recovered = DurableLedger(ledger_dir, HALF ** 8)
        assert recovered.view("u").cumulative_alpha == HALF ** 3
        recovered.close()

    def test_memory_policy_floor_binds_across_the_outage(
        self, store, tmp_path
    ):
        server, _ = make_faulty_ledger_server(
            store, tmp_path, policy="memory-mode-with-alarm",
            after=2, times=50, cooldown=60.0, floor=HALF ** 8,
        )
        client = InProcessClient(server)

        async def go():
            statuses = []
            for i in range(12):
                s, _ = await client.publish(
                    user="u", n=8, alpha="1/2", true_result=3
                )
                statuses.append(s)
            await server.stop()
            return statuses

        statuses = run(go())
        # Two durable charges, then volatile ones — but never past the
        # floor of (1/2)^8: exactly 8 successes total.
        assert statuses.count(200) == 8
        assert statuses[8:] == [429] * 4

    def test_memory_policy_keeps_a_siblings_outage_charges(
        self, store, tmp_path
    ):
        """A second book on the same directory charges the user while
        this worker is volatile; recovery must keep all three acked
        charges."""
        server, ledger_dir = make_faulty_ledger_server(
            store, tmp_path, policy="memory", after=1, times=1,
        )
        client = InProcessClient(server)

        async def go():
            out = [await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )]
            out.append(await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            ))  # the fsync fails: served volatile
            sibling = DurableLedger(ledger_dir)
            out.append(sibling.charge("u", HALF).outcome)
            sibling.close()
            await asyncio.sleep(0.06)
            # Another user's request arrives and runs the probe.
            out.append(await client.publish(
                user="w", n=8, alpha="1/2", true_result=3
            ))
            await server.stop()
            return out

        first, volatile, sibling, after = run(go())
        assert first[0] == 200 and after[0] == 200
        assert volatile[1]["durability"] == "volatile"
        assert sibling == "charged"
        assert server.breaker.recoveries == 1
        assert verify_ledger_dir(ledger_dir)["ok"]
        recovered = DurableLedger(ledger_dir)
        budget = recovered.view("u")
        assert (budget.cumulative_alpha, budget.releases) == (HALF ** 3, 3)
        recovered.close()

    def test_stop_while_volatile_journals_the_outage(self, store, tmp_path):
        """A graceful stop with no request after the disk came back must
        not drop the outage's acked charge (which would refill the
        budget)."""
        server, ledger_dir = make_faulty_ledger_server(
            store, tmp_path, policy="memory", after=1, times=1,
        )
        client = InProcessClient(server)

        async def go():
            first = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            second = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            await server.stop()
            return first, second

        first, second = run(go())
        assert first[0] == 200 and "durability" not in first[1]
        assert second[0] == 200 and second[1]["durability"] == "volatile"
        assert not server.breaker.open
        assert verify_ledger_dir(ledger_dir)["ok"]
        recovered = DurableLedger(ledger_dir)
        budget = recovered.view("u")
        assert (budget.cumulative_alpha, budget.releases) == (HALF ** 2, 2)
        recovered.close()

    def test_stop_while_the_wal_stays_down_warns(
        self, store, tmp_path, capsys
    ):
        server, _ = make_faulty_ledger_server(
            store, tmp_path, policy="memory", after=1, times=50,
            cooldown=60.0,
        )
        client = InProcessClient(server)

        async def go():
            # "u" is journaled; the fsync fails from "v" on.
            for user in ("u", "v", "w", "w"):
                await client.publish(
                    user=user, n=8, alpha="1/2", true_result=3
                )
            await server.stop()

        run(go())
        assert server.breaker.open
        assert "outage charges of 2 user(s) were not journaled" in (
            capsys.readouterr().err
        )

    def test_memory_policy_retry_after_recovery_replays(
        self, store, tmp_path
    ):
        server, ledger_dir = make_faulty_ledger_server(
            store, tmp_path, policy="memory", after=1, times=1,
        )
        client = InProcessClient(server)

        async def go():
            await client.publish(user="u", n=8, alpha="1/2", true_result=3)
            first = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="k1"
            )
            await asyncio.sleep(0.06)
            retry = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3, idem="k1"
            )
            view = await client.get("/ledger/u")
            await server.stop()
            return first, retry, view

        first, retry, (_, view) = run(go())
        assert first[0] == 200 and first[1]["durability"] == "volatile"
        assert server.breaker.recoveries == 1
        # Re-sample, never re-charge: the retry replays the response.
        assert retry == first
        assert server.metrics["replayed"] == 1
        assert view["cumulative_alpha"] == "1/4"
        recovered = DurableLedger(ledger_dir)
        assert recovered.view("u").cumulative_alpha == HALF ** 2
        assert recovered.charge("u", HALF, idem="k1").outcome == "replayed"
        recovered.close()
