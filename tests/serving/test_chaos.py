"""Chaos suite: kill the serving stack mid-traffic and prove the
durability invariants (run with ``pytest -m chaos``; also part of the
default run).

The two invariants every scenario asserts after recovery:

* **no user exceeds the floor** — the recovered cumulative guarantee is
  at or above (never below) the configured floor;
* **no admitted charge is lost** — every request the client saw a 200
  for has its charge in the recovered ledger: the recovered cumulative
  is at most ``alpha ** acknowledged_responses``.

Crashes can only over-protect (charges journaled for responses that
never went out), never refill a budget.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger, verify_ledger_dir
from repro.serving import (
    FaultInjector,
    HTTPServingClient,
    InProcessClient,
    InjectedCrash,
    MechanismServer,
)

pytestmark = pytest.mark.chaos

HALF = Fraction(1, 2)


@pytest.fixture()
def store(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(ArtifactSpec("geometric", 8, HALF))
    return store


def make_server(store, ledger_dir, *, faults=None, floor=HALF ** 6,
                **kwargs):
    kwargs.setdefault("audit_rate", 0.0)
    kwargs.setdefault("seed", 11)
    server = MechanismServer(
        store, floor=floor, ledger_dir=ledger_dir, faults=faults, **kwargs
    )
    server.load_store()
    return server


class TestInProcessKillAndRecover:
    """Deterministic crashes injected at named points mid-traffic."""

    @pytest.mark.parametrize(
        "point",
        [
            "charge.before-append",
            "charge.before-fsync",
            "charge.after-fsync",
            "batcher.before-execute",
            "server.before-response",
        ],
    )
    def test_crash_point_mid_traffic(self, store, tmp_path, point):
        ledger_dir = tmp_path / "ledger"
        floor = HALF ** 6
        faults = FaultInjector().crash_at(point, after=3)

        async def traffic():
            server = make_server(store, ledger_dir, faults=faults)
            client = InProcessClient(server)
            acked = 0
            crashed = False
            for index in range(10):
                try:
                    status, _ = await client.publish(
                        user="victim", n=8, alpha="1/2",
                        true_result=3, idem=f"req-{index}",
                    )
                except InjectedCrash:
                    crashed = True
                    break
                if status == 200:
                    acked += 1
                elif status == 503:
                    break  # the ledger died with the injected crash
            # do NOT call server.stop(): the process "died"
            return acked, crashed

        acked, crashed = asyncio.run(traffic())
        assert crashed or point == "server.before-response"

        report = verify_ledger_dir(ledger_dir)
        assert report["ok"], report["failures"]
        recovered = DurableLedger(ledger_dir, floor)
        budget = recovered.view("victim")
        cum = Fraction(1) if budget is None else budget.cumulative_alpha
        assert cum >= floor                # floor-legal
        assert cum <= HALF ** acked        # no acked charge lost
        recovered.close()

    def test_recovered_server_keeps_enforcing_the_floor(
        self, store, tmp_path
    ):
        ledger_dir = tmp_path / "ledger"
        floor = HALF ** 4
        faults = FaultInjector().crash_at("charge.after-fsync", after=1)

        async def first_life():
            server = make_server(
                store, ledger_dir, faults=faults, floor=floor
            )
            client = InProcessClient(server)
            await client.publish(
                user="u", n=8, alpha="1/2", true_result=3
            )
            with pytest.raises(InjectedCrash):
                await client.publish(
                    user="u", n=8, alpha="1/2", true_result=3
                )

        asyncio.run(first_life())

        async def second_life():
            server = make_server(store, ledger_dir, floor=floor)
            client = InProcessClient(server)
            statuses = []
            for _ in range(5):
                status, _ = await client.publish(
                    user="u", n=8, alpha="1/2", true_result=3
                )
                statuses.append(status)
            await server.stop()
            return statuses, server.ledgers

        statuses, _ = asyncio.run(second_life())
        # two charges survived the first life (the second was journaled
        # before the crash), so exactly two more fit before the floor:
        assert statuses == [200, 200, 429, 429, 429]
        recovered = DurableLedger(ledger_dir)
        assert recovered.view("u").cumulative_alpha == floor
        recovered.close()

    def test_idem_retry_across_crash_never_double_charges(
        self, store, tmp_path
    ):
        ledger_dir = tmp_path / "ledger"
        faults = FaultInjector().crash_at("server.before-response")

        async def first_life():
            server = make_server(store, ledger_dir, faults=faults)
            client = InProcessClient(server)
            with pytest.raises(InjectedCrash):
                await client.publish(
                    user="u", n=8, alpha="1/2", true_result=3,
                    idem="the-retry",
                )

        asyncio.run(first_life())

        async def second_life():
            server = make_server(store, ledger_dir)
            client = InProcessClient(server)
            status, _ = await client.publish(
                user="u", n=8, alpha="1/2", true_result=3,
                idem="the-retry",
            )
            assert status == 200
            budget = server.ledgers.view("u")
            await server.stop()
            return budget

        budget = asyncio.run(second_life())
        # charged exactly once across the crash + retry:
        assert budget.cumulative_alpha == HALF
        assert budget.releases == 1


_CHILD_SERVER = """
import asyncio, sys
from fractions import Fraction
from repro.serving import MechanismServer

store, ledger_dir, port_file = sys.argv[1], sys.argv[2], sys.argv[3]

async def main():
    server = MechanismServer(
        store, floor=Fraction(1, 2) ** 8, ledger_dir=ledger_dir,
        ledger_fsync="group", audit_rate=0.0, seed=11,
    )
    server.load_store()
    await server.start()
    with open(port_file, "w") as handle:
        handle.write(str(server.port))
    await server.serve_forever(install_signal_handlers=True)

asyncio.run(main())
"""


class TestProcessKillAndRecover:
    """A real ``SIGKILL`` against a real server process mid-traffic."""

    def test_sigkill_mid_traffic_loses_no_acked_charge(
        self, store, tmp_path
    ):
        ledger_dir = tmp_path / "ledger"
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p]
        )
        child = subprocess.Popen(
            [
                sys.executable, "-c", _CHILD_SERVER,
                str(store.path), str(ledger_dir), str(port_file),
            ],
            env=env,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() or not port_file.read_text():
                assert child.poll() is None, "server child died on start"
                assert time.monotonic() < deadline, "server never came up"
                time.sleep(0.05)
            port = int(port_file.read_text())

            async def drive():
                client = HTTPServingClient(
                    "127.0.0.1", port,
                    timeout=2.0, retries=0, seed=3,
                )
                acked = 0
                for index in range(200):
                    if index == 5:
                        os.kill(child.pid, signal.SIGKILL)
                    try:
                        status, _ = await client.publish(
                            user="victim", n=8, alpha="1/2",
                            true_result=3, idem=f"kill-{index}",
                        )
                    except Exception:
                        break  # the process is gone
                    if status == 200:
                        acked += 1
                await client.close()
                return acked

            acked = asyncio.run(drive())
            child.wait(timeout=10)

            report = verify_ledger_dir(ledger_dir)
            assert report["ok"], report["failures"]
            recovered = DurableLedger(ledger_dir, HALF ** 8)
            budget = recovered.view("victim")
            cum = (
                Fraction(1) if budget is None else budget.cumulative_alpha
            )
            # no admitted charge lost: every 200 the client saw is in
            # the recovered ledger (group commit syncs before release)
            assert cum <= HALF ** acked
            # and nothing below the floor was ever admitted:
            assert cum >= HALF ** 8
            recovered.close()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)

    def test_sigterm_drains_and_budget_survives(self, store, tmp_path):
        ledger_dir = tmp_path / "ledger"
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p]
        )
        child = subprocess.Popen(
            [
                sys.executable, "-c", _CHILD_SERVER,
                str(store.path), str(ledger_dir), str(port_file),
            ],
            env=env,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() or not port_file.read_text():
                assert child.poll() is None, "server child died on start"
                assert time.monotonic() < deadline, "server never came up"
                time.sleep(0.05)
            port = int(port_file.read_text())

            async def drive():
                client = HTTPServingClient(
                    "127.0.0.1", port, timeout=2.0, retries=2, seed=3
                )
                status, _ = await client.publish(
                    user="u", n=8, alpha="1/2", true_result=3
                )
                assert status == 200
                await client.close()

            asyncio.run(drive())
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=15) == 0  # graceful exit
            recovered = DurableLedger(ledger_dir)
            assert recovered.view("u").cumulative_alpha == HALF
            recovered.close()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)
