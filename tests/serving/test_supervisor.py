"""The supervised serving fleet: real worker processes, one listener,
one WAL — supervised restarts, draining, rolling reloads, and the full
chaos acceptance scenario.

Fast lifecycle checks run unmarked; anything that kills processes under
live traffic is ``@pytest.mark.chaos`` (still part of the default run,
grouped for `pytest -m chaos`).
"""

import asyncio
import signal
import time
from fractions import Fraction

import numpy as np
import pytest

from repro.exceptions import ReproError, ValidationError
from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger, verify_ledger_dir
from repro.serving import (
    HTTPServingClient,
    OnlineAuditor,
    ServingSupervisor,
)

HALF = Fraction(1, 2)


def make_fleet(tmp_path, *, workers=2, floor=HALF ** 20, config=None,
               **kwargs):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(ArtifactSpec("geometric", 8, HALF))
    DurableLedger(tmp_path / "ledger", floor).close()  # settle meta
    worker_config = {
        "store": str(tmp_path / "artifacts"),
        "floor": str(floor),
        "ledger_dir": str(tmp_path / "ledger"),
        "audit_rate": 0.0,
        "seed": 5,
        "queue_depth": 64,
    }
    worker_config.update(config or {})
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("backoff_base", 0.05)
    return ServingSupervisor(worker_config, workers=workers, **kwargs)


async def drive(port, count, *, n=8, alpha="1/2", users=4, retries=4,
                **extra):
    """Publish ``count`` statistics through the shared listener."""
    client = HTTPServingClient(
        "127.0.0.1", port, retries=retries, backoff=0.05, timeout=5.0
    )
    acked = {}
    bodies = []
    try:
        for i in range(count):
            user = f"u{i % users}"
            try:
                status, body = await client.publish(
                    user=user, n=n, alpha=alpha, true_result=3, **extra
                )
            except Exception:  # noqa: BLE001 - a kill mid-flight
                continue
            if status == 200:
                acked[user] = acked.get(user, 0) + 1
                bodies.append(body)
    finally:
        await client.close()
    return acked, bodies


class TestValidation:
    def test_needs_a_store_and_positive_workers(self):
        with pytest.raises(ValidationError, match="store"):
            ServingSupervisor({})
        with pytest.raises(ValidationError, match="workers"):
            ServingSupervisor({"store": "x"}, workers=0)

    def test_an_unknown_setting_raises_in_the_parent(self):
        with pytest.raises(ValidationError, match="trace_dri"):
            ServingSupervisor({"store": "x", "trace_dri": "d"})
        with pytest.raises(ValidationError, match="batch_windw"):
            ServingSupervisor(
                {"store": "x"}, slot_overrides={1: {"batch_windw": 0}}
            )

    def test_port_requires_start(self, tmp_path):
        fleet = make_fleet(tmp_path)
        with pytest.raises(ReproError, match="not started"):
            fleet.port

    def test_kill_needs_a_live_worker(self, tmp_path):
        fleet = make_fleet(tmp_path)
        fleet._slots[0].proc = None
        with pytest.raises(ReproError, match="no live worker"):
            fleet.kill_worker(0)


class TestFleetLifecycle:
    def test_start_serve_drain(self, tmp_path):
        fleet = make_fleet(tmp_path, workers=2)
        fleet.start()
        try:
            assert fleet.wait_ready(30), fleet.status()
            # Liveness and readiness through the shared listener.
            assert fleet.probe("/healthz")[0] == 200
            status, ready = fleet.probe("/readyz")
            assert status == 200 and ready["ready"]
            assert ready["worker"] in ("w0", "w1")
            acked, _ = asyncio.run(drive(fleet.port, 12))
            assert sum(acked.values()) == 12
        finally:
            fleet.lame_duck(drain_deadline=10.0)
        state = fleet.status()
        assert not any(slot["alive"] for slot in state["slots"])
        # SIGTERM drained them: clean exits, no SIGKILL escalation.
        assert all(
            slot["exits"] and slot["exits"][-1] == 0
            for slot in state["slots"]
        )
        # Every acked charge is in the shared WAL.
        ledger = DurableLedger(tmp_path / "ledger")
        assert ledger.view("u0").releases == 3
        assert ledger.users() == 4
        ledger.close()
        report = verify_ledger_dir(tmp_path / "ledger")
        assert report["ok"], report["failures"]

    def test_status_snapshot_shape(self, tmp_path):
        fleet = make_fleet(tmp_path, workers=1)
        fleet.start()
        try:
            assert fleet.wait_ready(30)
            state = fleet.status()
            assert state["workers"] == 1
            assert state["port"] == fleet.port
            slot = state["slots"][0]
            assert slot["alive"] and slot["ready"]
            assert slot["beats"] >= 1
            assert state["stats"]["spawns"] == 1
        finally:
            fleet.lame_duck(drain_deadline=10.0)


@pytest.mark.chaos
class TestFleetChaos:
    def wait_for(self, fleet, predicate, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            fleet.poll()
            if predicate(fleet.status()):
                return True
            time.sleep(0.05)
        return False

    def test_sigkill_is_restarted_with_backoff(self, tmp_path):
        fleet = make_fleet(tmp_path, workers=2, backoff_base=0.05,
                           stability_reset=3600.0)
        fleet.start()
        try:
            assert fleet.wait_ready(30)
            first_pid = fleet.status()["slots"][0]["pid"]
            fleet.kill_worker(0, signal.SIGKILL)
            assert self.wait_for(
                fleet,
                lambda s: s["stats"]["restarts"] >= 1
                and s["slots"][0]["alive"],
            )
            assert fleet.wait_ready(30)
            state = fleet.status()
            assert state["slots"][0]["pid"] != first_pid
            assert state["slots"][0]["exits"][-1] == -signal.SIGKILL
            # The failure count feeds the capped exponential backoff.
            assert state["slots"][0]["failures"] == 1
            # The surviving worker never blinked.
            assert state["slots"][1]["spawns"] == 1
            # And the fleet still serves.
            acked, _ = asyncio.run(drive(fleet.port, 8))
            assert sum(acked.values()) == 8
        finally:
            fleet.lame_duck(drain_deadline=10.0)

    def test_listener_drop_is_detected_and_replaced(self, tmp_path):
        fleet = make_fleet(
            tmp_path, workers=2,
            not_ready_timeout=0.4, heartbeat_interval=0.1,
            slot_overrides={1: {"faults": {"listener_drop_after_s": 0.8}}},
        )
        fleet.start()
        try:
            assert fleet.wait_ready(30)
            # The dropped listener makes slot 1 beat not-ready; the
            # supervisor drains and replaces it. The replacement
            # inherits the same override, so it will drop again —
            # assert the first replacement cycle only.
            assert self.wait_for(
                fleet,
                lambda s: s["stats"]["not_ready_restarts"] >= 1
                and s["stats"]["restarts"] >= 1,
            )
        finally:
            fleet.lame_duck(drain_deadline=10.0)

    def test_rolling_reload_replaces_every_worker(self, tmp_path):
        fleet = make_fleet(tmp_path, workers=2)
        fleet.start()
        try:
            assert fleet.wait_ready(30)
            pids = [s["pid"] for s in fleet.status()["slots"]]
            assert fleet.rolling_reload(ready_timeout=30.0)
            state = fleet.status()
            assert [s["pid"] for s in state["slots"]] != pids
            assert all(s["alive"] and s["ready"] for s in state["slots"])
            assert state["stats"]["rolling_reloads"] == 1
            acked, _ = asyncio.run(drive(fleet.port, 8))
            assert sum(acked.values()) == 8
        finally:
            fleet.lame_duck(drain_deadline=10.0)


@pytest.mark.chaos
class TestFleetAcceptance:
    """The PR's acceptance scenario: 4 workers under live HTTP traffic,
    two SIGKILLed mid-traffic, one riding an injected fsync storm, and
    a quarantined bespoke artifact serving certified-degraded geometric
    responses — with zero lost acked charges, no user past the floor,
    and full capacity restored."""

    def test_fleet_chaos_end_to_end(self, tmp_path):
        import json as json_mod

        from repro.release.artifacts import _payload_digest

        store = ArtifactStore(tmp_path / "artifacts")
        store.get_or_compile(ArtifactSpec("geometric", 8, HALF))
        geometric4 = store.get_or_compile(ArtifactSpec("geometric", 4, HALF))
        optimal = ArtifactSpec("optimal", 4, HALF, loss="absolute")
        store.get_or_compile(optimal)
        # Tamper the bespoke artifact so every worker quarantines it.
        entry = store._entry_path(optimal.key())
        payload = json_mod.loads(entry.read_text())
        kernel = payload["kernel"]
        kernel[0][0], kernel[0][1] = kernel[0][1], kernel[0][0]
        payload["digest"] = _payload_digest(payload)
        entry.write_text(json_mod.dumps(payload))

        floor = HALF ** 60
        DurableLedger(tmp_path / "ledger", floor).close()
        fleet = ServingSupervisor(
            {
                "store": str(tmp_path / "artifacts"),
                "floor": str(floor),
                "ledger_dir": str(tmp_path / "ledger"),
                "ledger_fsync": "always",
                "audit_rate": 0.0,
                "seed": 5,
                "queue_depth": 64,
                "degraded": "geometric",
                "wal_failure_policy": "reject-new-charges",
                "breaker_cooldown": 0.2,
            },
            workers=4,
            heartbeat_interval=0.1,
            backoff_base=0.05,
            # Worker 0's WAL fsyncs fail 3 times from the start: it must
            # trip its breaker loudly, then recover via probes.
            slot_overrides={
                0: {"faults": {"fsync_storm": {"after": 0, "times": 3}}}
            },
        )
        fleet.start()
        try:
            assert fleet.wait_ready(60), fleet.status()

            async def scenario():
                killed = []

                async def supervise():
                    while True:
                        fleet.poll()
                        await asyncio.sleep(0.03)

                task = asyncio.create_task(supervise())
                try:
                    client = HTTPServingClient(
                        "127.0.0.1", fleet.port, retries=6,
                        backoff=0.05, timeout=5.0,
                    )
                    acked = {}
                    degraded = []
                    lost = 0
                    for i in range(160):
                        user = f"u{i % 8}"
                        # Interleave healthy traffic with requests for
                        # the quarantined bespoke deployment.
                        if i % 2:
                            kwargs = dict(
                                n=4, alpha="1/2", kind="optimal",
                                loss="absolute", true_result=i % 5,
                            )
                        else:
                            kwargs = dict(n=8, alpha="1/2", true_result=3)
                        try:
                            status, body = await client.publish(
                                user=user, **kwargs
                            )
                        except Exception:  # noqa: BLE001 - kill window
                            lost += 1
                            await client.close()
                            continue
                        if status == 200:
                            acked[user] = acked.get(user, 0) + 1
                            if body.get("degraded") == "geometric":
                                degraded.append(
                                    (kwargs["true_result"], body["value"])
                                )
                        if i == 50:
                            killed.append(fleet.kill_worker(1))
                        if i == 70:
                            killed.append(fleet.kill_worker(2))
                    await client.close()
                    return acked, degraded, lost, killed
                finally:
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task

            acked, degraded, lost, killed = asyncio.run(scenario())
            assert len(killed) == 2
            # Supervisor restores full capacity after both kills.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                fleet.poll()
                state = fleet.status()
                if (
                    state["stats"]["restarts"] >= 2
                    and all(s["alive"] for s in state["slots"])
                ):
                    break
                time.sleep(0.05)
            assert fleet.wait_ready(60), fleet.status()
            state = fleet.status()
            assert state["stats"]["restarts"] >= 2

            # Certified degradation actually served traffic, marked.
            assert len(degraded) >= 30
        finally:
            fleet.lame_duck(drain_deadline=15.0)

        # -- durability invariants over the shared WAL ------------------
        report = verify_ledger_dir(tmp_path / "ledger")
        assert report["ok"], report["failures"]
        ledger = DurableLedger(tmp_path / "ledger")
        for user, count in acked.items():
            budget = ledger.view(user)
            assert budget is not None
            cum = budget.cumulative_alpha
            # No user past the floor; zero lost acked charges: the
            # journal holds at least one charge per acked response
            # (kill-window charges may add more — over-protection).
            assert cum >= floor
            assert cum <= HALF ** count
        ledger.close()

        # -- degraded responses obey the *geometric* law ----------------
        auditor = OnlineAuditor(rate=1.0, min_samples=30, rng=7)
        auditor.register(0, geometric4)
        rows = np.array([row for row, _ in degraded], dtype=np.int64)
        values = np.array([value for _, value in degraded], dtype=np.int64)
        auditor.observe(np.zeros(len(rows), dtype=np.int64), rows, values)
        findings = auditor.sweep()
        assert findings and findings[0].sufficient
        assert not findings[0].flagged
