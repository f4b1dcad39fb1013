"""Benchmark: the supervised multi-worker serving fleet.

PR 10 adds :class:`repro.serving.supervisor.ServingSupervisor`: N worker
processes sharing one ``SO_REUSEPORT`` listener, one durable WAL ledger,
and one artifact store, with admission control shedding overload before
any budget charge. This benchmark measures the three claims the fleet
makes:

* ``scaling`` — end-to-end HTTP throughput at 1 worker vs 4 workers.
  On a >= 4-core machine the fleet must deliver **>= 2x** the
  single-worker rate (the per-process GIL is the whole reason the fleet
  exists); on smaller machines (CI shards, laptops in powersave) the
  floor degrades to a sanity bound — the fleet must never be *slower*
  than half the single worker, i.e. supervision overhead is noise;
* ``shedding`` — a worker with a tiny admission queue under a flood:
  shed (429) responses must come back fast (**p99 under the ceiling**)
  because a shed happens *before* batching, sampling, or any ledger
  write — overload protection that queues is not protection;
* ``kill_restart`` — live traffic through 2 workers while one is
  SIGKILLed mid-run: after drain, every acknowledged 200 has its charge
  in the recovered WAL (**zero lost acked charges**) and the journal
  passes the integrity check.

Standalone: ``PYTHONPATH=src:benchmarks python benchmarks/bench_fleet.py``
(``--quick`` for a CI smoke run; ``--check`` enforces the floors).
Emits a ``BENCH {json}`` line and writes
``benchmarks/out/BENCH_fleet.json``.
"""

import argparse
import asyncio
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from _report import emit, emit_bench

from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger, verify_ledger_dir
from repro.serving import HTTPServingClient, ServingSupervisor

HALF = Fraction(1, 2)

#: Fleet-vs-single throughput floor on a machine with >= 4 cores.
SCALING_FLOOR = 2.0
#: Sanity floor everywhere else: supervision must not cost throughput.
SCALING_SANITY_FLOOR = 0.5
#: Shed-latency ceiling: a 429 must return within this p99 (ms).
SHED_P99_CEILING_MS = 50.0


def make_fleet(tmp, tag, *, workers, floor=HALF ** 64, **config):
    store_dir = Path(tmp) / f"artifacts-{tag}"
    ledger_dir = Path(tmp) / f"ledger-{tag}"
    store = ArtifactStore(store_dir)
    store.get_or_compile(ArtifactSpec("geometric", 8, HALF))
    DurableLedger(ledger_dir, floor).close()  # settle meta/floor
    worker_config = {
        "store": str(store_dir),
        "floor": str(floor),
        "ledger_dir": str(ledger_dir),
        "ledger_fsync": "group",
        "audit_rate": 0.0,
        "seed": 31,
        "queue_depth": 256,
    }
    worker_config.update(config)
    fleet = ServingSupervisor(
        worker_config, workers=workers,
        heartbeat_interval=0.1, backoff_base=0.05,
    )
    return fleet, ledger_dir


async def flood(port, *, requests, concurrency, users, retries=2,
                supervisor=None, kill=None):
    """Drive ``requests`` publishes over ``concurrency`` connections.

    Returns (wall, per-user ack counts, latency array, status counts).
    With ``supervisor`` set, a side task keeps the supervision loop
    polling (restarts, heartbeats) while traffic flows; ``kill`` is an
    optional ``(at_request_index, slot)`` chaos action.
    """
    counter = iter(range(requests))
    latencies = []
    statuses = {}
    acked = {}
    killed = []

    async def supervise():
        while True:
            supervisor.poll()
            await asyncio.sleep(0.03)

    async def worker(wid):
        client = HTTPServingClient(
            "127.0.0.1", port, retries=retries, backoff=0.05,
            timeout=10.0, seed=wid,
        )
        try:
            for i in counter:
                if kill is not None and i == kill[0]:
                    killed.append(supervisor.kill_worker(kill[1]))
                user = f"u{i % users}"
                begin = time.perf_counter()
                try:
                    status, _ = await client.publish(
                        user=user, n=8, alpha="1/2", true_result=3
                    )
                except Exception:  # noqa: BLE001 - kill window
                    statuses["lost"] = statuses.get("lost", 0) + 1
                    await client.close()
                    continue
                latencies.append(time.perf_counter() - begin)
                statuses[status] = statuses.get(status, 0) + 1
                if status == 200:
                    acked[user] = acked.get(user, 0) + 1
        finally:
            await client.close()

    side = (
        asyncio.create_task(supervise()) if supervisor is not None else None
    )
    start = time.perf_counter()
    try:
        await asyncio.gather(*[worker(w) for w in range(concurrency)])
    finally:
        if side is not None:
            side.cancel()
            await asyncio.gather(side, return_exceptions=True)
    wall = time.perf_counter() - start
    return wall, acked, np.asarray(latencies), statuses, killed


def bench_scaling(tmp, *, workers, requests, concurrency, users):
    """HTTP throughput through a fleet of ``workers`` processes."""
    fleet, _ledger = make_fleet(tmp, f"scale{workers}", workers=workers)
    fleet.start()
    try:
        assert fleet.wait_ready(60), fleet.status()
        wall, acked, latencies, statuses, _ = asyncio.run(
            flood(
                fleet.port, requests=requests, concurrency=concurrency,
                users=users, supervisor=fleet,
            )
        )
    finally:
        fleet.lame_duck(drain_deadline=15.0)
    oks = sum(acked.values())
    assert statuses.get(200, 0) == oks == requests, statuses
    return {
        "workers": workers,
        "requests": requests,
        "concurrency": concurrency,
        "wall_seconds": wall,
        "qps": requests / wall,
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
    }


def bench_shedding(tmp, *, requests, concurrency, users):
    """Flood one worker with a tiny queue; time the 429s."""
    fleet, _ledger = make_fleet(
        tmp, "shed", workers=1,
        queue_depth=2, batch_window=0.02,
    )
    fleet.start()
    try:
        assert fleet.wait_ready(60), fleet.status()

        async def go():
            sheds = []
            oks = 0

            async def worker(wid):
                nonlocal oks
                client = HTTPServingClient(
                    "127.0.0.1", fleet.port, retries=0, timeout=10.0,
                    seed=wid,
                )
                try:
                    for i in range(requests // concurrency):
                        begin = time.perf_counter()
                        status, body = await client.publish(
                            user=f"u{(wid * 7919 + i) % users}",
                            n=8, alpha="1/2", true_result=3,
                        )
                        elapsed = time.perf_counter() - begin
                        if status == 429:
                            sheds.append(elapsed)
                            assert body["retry_after"] > 0
                        elif status == 200:
                            oks += 1
                finally:
                    await client.close()

            await asyncio.gather(*[worker(w) for w in range(concurrency)])
            return sheds, oks

        sheds, oks = asyncio.run(go())
    finally:
        fleet.lame_duck(drain_deadline=15.0)
    assert sheds, "the flood never overflowed the queue — not a flood"
    array = np.asarray(sheds)
    return {
        "requests": requests,
        "concurrency": concurrency,
        "queue_depth": 2,
        "admitted": oks,
        "shed": len(sheds),
        "shed_p50_ms": float(np.percentile(array, 50)) * 1e3,
        "shed_p99_ms": float(np.percentile(array, 99)) * 1e3,
    }


def bench_kill_restart(tmp, *, requests, concurrency, users):
    """SIGKILL a worker mid-traffic; prove no acked charge was lost."""
    floor = HALF ** 64
    fleet, ledger_dir = make_fleet(
        tmp, "kill", workers=2, floor=floor, ledger_fsync="always",
    )
    fleet.start()
    try:
        assert fleet.wait_ready(60), fleet.status()
        wall, acked, _lat, statuses, killed = asyncio.run(
            flood(
                fleet.port, requests=requests, concurrency=concurrency,
                users=users, retries=6,
                supervisor=fleet, kill=(requests // 3, 0),
            )
        )
        assert killed, "the kill never fired"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            fleet.poll()
            if fleet.wait_ready(0.2):
                break
        restarts = fleet.status()["stats"]["restarts"]
        assert restarts >= 1, fleet.status()
    finally:
        fleet.lame_duck(drain_deadline=15.0)

    report = verify_ledger_dir(ledger_dir)
    assert report["ok"], report["failures"]
    recovered = DurableLedger(ledger_dir)
    lost = 0
    for user, count in acked.items():
        budget = recovered.view(user)
        # The journal must hold >= `count` charges for this user: the
        # cumulative alpha is then <= alpha^count (charges multiply).
        if budget is None or budget.cumulative_alpha > HALF ** count:
            lost += 1
    recovered.close()
    assert lost == 0, f"{lost} users lost acknowledged charges"
    return {
        "requests": requests,
        "acknowledged": sum(acked.values()),
        "lost_in_flight": statuses.get("lost", 0),
        "restarts": restarts,
        "users_checked": len(acked),
        "lost_acked_charges": lost,
        "journal_records": report["records"],
        "integrity_ok": True,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small load for a CI smoke run"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when a fleet floor is missed: >= 2x "
        "single-worker qps at 4 workers (on >= 4 cores), shed p99 "
        "under the ceiling, zero lost acked charges after kill-restart",
    )
    args = parser.parse_args(argv)

    if args.quick:
        requests, concurrency, users = 600, 8, 64
        shed_requests, shed_concurrency = 240, 24
    else:
        requests, concurrency, users = 6_000, 32, 512
        shed_requests, shed_concurrency = 2_400, 48

    cpu_count = os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        single = bench_scaling(
            tmp, workers=1, requests=requests,
            concurrency=concurrency, users=users,
        )
        quad = bench_scaling(
            tmp, workers=4, requests=requests,
            concurrency=concurrency, users=users,
        )
        shedding = bench_shedding(
            tmp, requests=shed_requests,
            concurrency=shed_concurrency, users=users,
        )
        kill = bench_kill_restart(
            tmp, requests=requests, concurrency=concurrency, users=users,
        )

    speedup = quad["qps"] / single["qps"]
    floor = SCALING_FLOOR if cpu_count >= 4 else SCALING_SANITY_FLOOR
    results = {
        "quick": args.quick,
        "cpu_count": cpu_count,
        "scaling": {"single": single, "quad": quad, "speedup": speedup},
        "shedding": shedding,
        "kill_restart": kill,
        "targets": {
            "scaling_floor": floor,
            "scaling_floor_is_degraded": cpu_count < 4,
            "shed_p99_ceiling_ms": SHED_P99_CEILING_MS,
        },
    }

    lines = ["supervised serving fleet:"]
    for row in (single, quad):
        lines.append(
            "  {workers} worker(s): {qps:8.0f} req/s  "
            "p50={latency_p50_ms:6.2f}ms p99={latency_p99_ms:6.2f}ms  "
            "({requests:,} requests x{concurrency} conns)".format(**row)
        )
    lines.append(
        f"  speedup at 4 workers: {speedup:.2f}x "
        f"(floor {floor:.1f}x on {cpu_count} cpus)"
    )
    lines.append(
        "  shedding: {shed:,} sheds / {admitted:,} admitted at "
        "queue_depth={queue_depth}; shed p50={shed_p50_ms:.2f}ms "
        "p99={shed_p99_ms:.2f}ms".format(**shedding)
    )
    lines.append(
        "  kill-restart: {acknowledged:,} acked, {restarts} restart(s), "
        "{lost_acked_charges} lost acked charges "
        "({journal_records} journal records; integrity OK)".format(**kill)
    )
    emit("fleet", "\n".join(lines))
    emit_bench("fleet", results)

    if args.check:
        failures = []
        if speedup < floor:
            failures.append(
                f"scaling floor missed: {speedup:.2f}x < {floor:.1f}x "
                f"({cpu_count} cpus)"
            )
        if shedding["shed_p99_ms"] > SHED_P99_CEILING_MS:
            failures.append(
                "shed p99 ceiling missed: "
                f"{shedding['shed_p99_ms']:.2f}ms > "
                f"{SHED_P99_CEILING_MS:.0f}ms"
            )
        if kill["lost_acked_charges"]:
            failures.append(
                f"{kill['lost_acked_charges']} lost acked charges"
            )
        for failure in failures:
            print("fleet target missed: " + failure)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
