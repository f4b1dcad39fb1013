"""Property suite for admission control plus the spawn-pool fleet race.

Three properties, each load-bearing for the fleet story:

* **ticket conservation** — the admission controller's in-flight count
  equals admits minus releases and never exceeds the configured bound,
  under any interleaving;
* **shed-is-free / admitted-charges-once** — on a live server, the
  ledger's recorded releases equal exactly the number of 200 responses:
  a shed request charged nothing, an admitted one charged once;
* **fleet-wide floor capacity** — N real server processes over ONE
  shared durable ledger admit exactly the floor's worth of releases for
  a shared user, no matter how the processes race.
"""

import asyncio
import multiprocessing
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger, verify_ledger_dir
from repro.serving import AdmissionController, InProcessClient, MechanismServer

HALF = Fraction(1, 2)


class TestAdmissionProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        ops=st.lists(
            st.one_of(
                st.just("admit"),
                st.floats(min_value=0.0, max_value=0.5),  # release(elapsed)
            ),
            max_size=200,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_ticket_conservation_and_bound(self, capacity, ops):
        gate = AdmissionController(capacity=capacity)
        outstanding = 0
        for op in ops:
            if op == "admit":
                if gate.try_admit() is None:
                    outstanding += 1
            else:
                gate.release(op)
                outstanding = max(0, outstanding - 1)
            assert gate.inflight == outstanding
            assert gate.inflight <= capacity
            assert gate.service_ewma >= 0.0
        assert gate.stats["admitted"] >= gate.stats["peak_inflight"]

    @given(
        depth=st.integers(min_value=1, max_value=4),
        burst=st.integers(min_value=1, max_value=10),
        deadlines=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_shed_never_charged_admitted_charged_exactly_once(
        self, tmp_path_factory, depth, burst, deadlines
    ):
        store = ArtifactStore(
            tmp_path_factory.mktemp("artifacts") / "store"
        )
        store.get_or_compile(ArtifactSpec("geometric", 8, HALF))
        server = MechanismServer(
            store, queue_depth=depth, batch_window=0.02,
            audit_rate=0.0, seed=3,
        )
        server.load_store()
        client = InProcessClient(server)

        async def go():
            payloads = []
            for i in range(burst):
                payload = {
                    "user": f"u{i}",
                    "n": 8,
                    "alpha": "1/2",
                    "true_result": 3,
                }
                if deadlines and i % 2:
                    payload["deadline_ms"] = 50.0
                payloads.append(payload)
            results = await asyncio.gather(
                *(server.publish(p) for p in payloads)
            )
            await server.stop()
            return results

        results = asyncio.run(go())
        oks = sum(1 for status, _ in results if status == 200)
        sheds = sum(1 for status, _ in results if status in (429, 503))
        assert oks + sheds == burst
        assert oks >= 1  # the bound admits at least one
        # THE invariant: every 200 charged once, every shed charged
        # never — the books show exactly `oks` users with one release.
        assert server.ledgers.users() == oks
        assert server.metrics["shed"] == sheds
        for status, body in results:
            if status != 200:
                assert body["shed"] in ("queue_full", "deadline")
                assert body["retry_after"] > 0


class TestSpawnPoolFleet:
    def test_fleet_admits_exactly_the_floor_capacity(self, tmp_path):
        """4 real server processes, one WAL, one shared user with room
        for 10 releases at alpha=1/2: exactly 10 of the 20 racing
        publishes are admitted, fleet-wide, and the journal survives
        verification."""
        store_dir = tmp_path / "artifacts"
        ledger_dir = tmp_path / "ledger"
        store = ArtifactStore(store_dir)
        store.get_or_compile(ArtifactSpec("geometric", 8, HALF))
        floor = HALF ** 10
        DurableLedger(ledger_dir, floor).close()  # settle meta/floor
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            outcomes = pool.map(
                _fleet_worker,
                [(str(store_dir), str(ledger_dir), str(floor))] * 4,
            )
        assert sum(outcomes) == 10
        report = verify_ledger_dir(ledger_dir)
        assert report["ok"], report["failures"]
        back = DurableLedger(ledger_dir)
        assert back.view("shared").cumulative_alpha == floor
        back.close()


def _fleet_worker(args: tuple) -> int:
    """One fleet member: publish 5 statistics for the shared user."""
    store_dir, ledger_dir, floor = args
    server = MechanismServer(
        ArtifactStore(store_dir), ledger_dir=ledger_dir,
        floor=Fraction(floor), audit_rate=0.0, seed=5,
    )
    server.load_store()
    client = InProcessClient(server)

    async def go() -> int:
        oks = 0
        for _ in range(5):
            status, _ = await client.publish(
                user="shared", n=8, alpha="1/2", true_result=3
            )
            if status == 200:
                oks += 1
        await server.stop()
        return oks

    return asyncio.run(go())
