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

Every load runs through :func:`_serving.drive`, one HTTP client per
connection.

Standalone: ``PYTHONPATH=src:benchmarks python benchmarks/bench_fleet.py``
(``--quick`` for a CI smoke run; ``--check`` enforces the floors).
Emits a ``BENCH {json}`` line and writes
``benchmarks/out/BENCH_fleet.json``.
"""

import asyncio
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from _report import emit, emit_bench, parse_args
from _serving import LOST, check_recovered_ledger, drive

from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger
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


def request(users):
    """Request ``i``: user ``u{i % users}`` publishing at n=8, alpha=1/2."""
    return lambda i: {"user": f"u{i % users}", "n": 8, "alpha": "1/2",
                      "true_result": 3}


def flood(fleet, *, requests, concurrency, users, retries=2,
          on_answer=None):
    """Drive ``requests`` publishes over ``concurrency`` connections
    while a side task keeps the supervision loop polling (restarts,
    heartbeats)."""
    async def supervise():
        while True:
            fleet.poll()
            await asyncio.sleep(0.03)

    async def go():
        side = asyncio.create_task(supervise())
        try:
            return await drive(
                lambda c: HTTPServingClient(
                    "127.0.0.1", fleet.port, retries=retries,
                    backoff=0.05, timeout=10.0, seed=c,
                ),
                request(users),
                requests=requests, concurrency=concurrency,
                on_answer=on_answer,
            )
        finally:
            side.cancel()
            await asyncio.gather(side, return_exceptions=True)

    return asyncio.run(go())


def bench_scaling(tmp, *, workers, requests, concurrency, users):
    """HTTP throughput through a fleet of ``workers`` processes."""
    fleet, _ledger = make_fleet(tmp, f"scale{workers}", workers=workers)
    fleet.start()
    try:
        assert fleet.wait_ready(60), fleet.status()
        load = flood(
            fleet, requests=requests, concurrency=concurrency, users=users
        )
    finally:
        fleet.lame_duck(drain_deadline=15.0)
    assert load.counts() == {200: requests}, load.counts()
    return {**load.row(), "workers": workers, "concurrency": concurrency}


def bench_shedding(tmp, *, requests, concurrency, users):
    """Flood one worker with a tiny queue; time the 429s."""
    fleet, _ledger = make_fleet(
        tmp, "shed", workers=1,
        queue_depth=2, batch_window=0.02,
    )

    def on_answer(i, status, body):
        if status == 429:
            assert body["retry_after"] > 0

    fleet.start()
    try:
        assert fleet.wait_ready(60), fleet.status()
        load = flood(
            fleet, requests=requests, concurrency=concurrency, users=users,
            retries=0, on_answer=on_answer,
        )
    finally:
        fleet.lame_duck(drain_deadline=15.0)
    assert LOST not in load.counts(), load.counts()
    sheds = load.latencies[load.statuses == 429]
    assert sheds.size, "the flood never overflowed the queue — not a flood"
    return {
        "requests": requests,
        "concurrency": concurrency,
        "queue_depth": 2,
        "admitted": int((load.statuses == 200).sum()),
        "shed": int(sheds.size),
        "shed_p50_ms": float(np.percentile(sheds, 50)) * 1e3,
        "shed_p99_ms": float(np.percentile(sheds, 99)) * 1e3,
    }


def bench_kill_restart(tmp, *, requests, concurrency, users):
    """SIGKILL a worker mid-traffic; prove no acked charge was lost."""
    fleet, ledger_dir = make_fleet(
        tmp, "kill", workers=2, ledger_fsync="always",
    )
    killed = []

    def on_answer(i, status, body):
        if i == requests // 3:
            killed.append(fleet.kill_worker(0))

    fleet.start()
    try:
        assert fleet.wait_ready(60), fleet.status()
        load = flood(
            fleet, requests=requests, concurrency=concurrency, users=users,
            retries=6, on_answer=on_answer,
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

    # An unacknowledged charge in flight at the kill may have landed, so
    # each recovered alpha is at most the product of the acked alphas.
    return {
        "requests": requests,
        **check_recovered_ledger(
            ledger_dir, load, request(users), exact=False
        ),
        "lost_in_flight": load.counts().get(LOST, 0),
        "restarts": restarts,
        "lost_acked_charges": 0,
        "integrity_ok": True,
    }


def main(argv=None):
    args = parse_args(
        argv, __doc__,
        "exit nonzero when a fleet floor is missed: >= 2x "
        "single-worker qps at 4 workers (on >= 4 cores), shed p99 "
        "under the ceiling, zero lost acked charges after kill-restart",
    )

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
    emit_bench("fleet", results, quick=args.quick)

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
        for failure in failures:
            print("fleet target missed: " + failure)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
