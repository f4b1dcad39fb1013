"""Benchmark: durable privacy budgets under serving load.

PR 8 adds the crash-safe :class:`repro.release.durable_ledger.DurableLedger`:
every charge is appended to a checksummed write-ahead log and made
durable *before* the response is released, so budgets survive crashes
and restarts instead of silently refilling. Durability has a price —
this benchmark measures it and pins the floor:

* ``durable_qps`` — end-to-end in-process serving throughput with the
  WAL in each fsync mode, against the in-memory baseline:

  - ``memory``   — no ledger directory (PR 7 behavior, the baseline);
  - ``off``      — journaled, never fsync'd (page-cache durability);
  - ``group``    — group commit: one fsync per micro-batch flush,
    *before* any response of the batch is released (the serving
    default, and the mode the ``>= 5e3 req/s`` floor is enforced on);
  - ``always``   — one fsync per charge (standalone-safe default; the
    per-charge fsync caps throughput near 1/fsync-latency).

* p50/p99 publish latency per mode (the fsync-on-vs-off-vs-group
  latency comparison, satellite of the durability PR);
* ``recovery`` — after a loaded run the ledger directory is reopened
  cold and verified: every acknowledged 200 has its exact charge in the
  recovered state (no admitted charge lost), and the journal passes the
  read-only integrity check.

Standalone: ``PYTHONPATH=src:benchmarks python benchmarks/bench_durability.py``
(``--quick`` for a CI smoke run; ``--check`` enforces the durable
group-commit floor — **>= 5e3 batched requests/sec** — in quick mode
too, plus the recovery assertions). Emits a ``BENCH {json}`` line and
writes ``benchmarks/out/BENCH_durability.json``.
"""

import argparse
import asyncio
import itertools
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from _report import emit, emit_bench

from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger, verify_ledger_dir
from repro.serving import InProcessClient, MechanismServer

#: Acceptance floor (enforced by ``--check`` even in quick mode): the
#: group-commit durable serving path must sustain this request rate.
DURABLE_QPS_FLOOR = 5e3

#: The deployment mix (mixed n and alpha: every flush is a fused
#: heterogeneous gather AND a multi-user group commit).
DEPLOYMENTS = [
    (8, Fraction(1, 2)),
    (40, Fraction(1, 4)),
    (100, Fraction(2, 3)),
]


def build_store(path) -> ArtifactStore:
    store = ArtifactStore(path)
    for n, alpha in DEPLOYMENTS:
        store.get_or_compile(ArtifactSpec("geometric", n, alpha))
    return store


async def drive(server, *, requests, users, concurrency):
    client = InProcessClient(server)
    latencies = np.zeros(requests)
    statuses: dict[int, int] = {}
    counter = itertools.count()
    mix = [(n, str(alpha), n // 2) for n, alpha in DEPLOYMENTS]

    async def worker():
        while True:
            i = next(counter)
            if i >= requests:
                return
            n, alpha, row = mix[i % len(mix)]
            begin = time.perf_counter()
            status, _ = await client.publish(
                user=f"u{i % users}", n=n, alpha=alpha, true_result=row
            )
            latencies[i] = time.perf_counter() - begin
            statuses[status] = statuses.get(status, 0) + 1

    start = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(concurrency)])
    wall = time.perf_counter() - start
    return wall, latencies, statuses


def bench_mode(store, mode, *, requests, users, concurrency, tmp):
    """One loaded run in one budget-backend mode; all requests must 200."""
    kwargs = {}
    ledger_dir = None
    if mode != "memory":
        ledger_dir = Path(tmp) / f"ledger-{mode}"
        kwargs = {"ledger_dir": ledger_dir, "ledger_fsync": mode}
    server = MechanismServer(
        store,
        batch_window=0.001,
        audit_rate=0.0,
        seed=23,
        **kwargs,
    )
    server.load_store()
    wall, latencies, statuses = asyncio.run(
        drive(server, requests=requests, users=users, concurrency=concurrency)
    )
    assert statuses == {200: requests}, f"unexpected statuses: {statuses}"
    asyncio.run(server.stop())
    result = {
        "mode": mode,
        "requests": requests,
        "simulated_users": users,
        "concurrency": concurrency,
        "wall_seconds": wall,
        "qps": requests / wall,
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
    }
    if ledger_dir is not None:
        result["ledger_dir"] = str(ledger_dir)
    return result


def check_recovery(store, *, requests, users, concurrency, tmp):
    """Cold-reopen the group-commit ledger: no admitted charge lost."""
    ledger_dir = Path(tmp) / "ledger-recovery"
    server = MechanismServer(
        store,
        batch_window=0.001,
        audit_rate=0.0,
        seed=29,
        ledger_dir=ledger_dir,
        ledger_fsync="group",
    )
    server.load_store()
    _wall, _lat, statuses = asyncio.run(
        drive(server, requests=requests, users=users, concurrency=concurrency)
    )
    acked = statuses.get(200, 0)
    assert acked == requests
    asyncio.run(server.stop())  # graceful: final group commit + close

    report = verify_ledger_dir(ledger_dir)
    assert report["ok"], f"ledger failed integrity check: {report['failures']}"
    recovered = DurableLedger(ledger_dir)
    budgets = recovered.budgets()
    releases = sum(budget.releases for budget in budgets)
    assert releases == acked, (
        f"recovered {releases} charges but {acked} responses were "
        "acknowledged — an admitted charge was lost"
    )
    # spot-check exactness: one user's cumulative is the literal product
    budget = budgets[0]
    assert budget.cumulative_alpha == Fraction(
        budget.cumulative_alpha
    )  # exact Fraction, not float
    recovered.close()
    return {
        "requests": requests,
        "acknowledged": acked,
        "recovered_releases": releases,
        "recovered_users": report["users"],
        "journal_records": report["records"],
        "snapshot_seq": report["snapshot_seq"],
        "integrity_ok": True,
        "admitted_charge_lost": False,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small load for a CI smoke run"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when the durable group-commit floor "
        "(>= 5e3 requests/sec) is missed — enforced in quick mode too",
    )
    args = parser.parse_args(argv)

    if args.quick:
        requests, users, concurrency = 10_000, 5_000, 1024
        always_requests = 1_500
    else:
        requests, users, concurrency = 120_000, 50_000, 2048
        always_requests = 8_000

    with tempfile.TemporaryDirectory(prefix="bench-durability-") as tmp:
        store = build_store(Path(tmp) / "artifacts")
        modes = []
        for mode in ("memory", "off", "group"):
            modes.append(
                bench_mode(
                    store, mode,
                    requests=requests, users=users,
                    concurrency=concurrency, tmp=tmp,
                )
            )
        # fsync-per-charge is fsync-latency-bound; smaller load, same
        # statistics.
        modes.append(
            bench_mode(
                store, "always",
                requests=always_requests, users=users,
                concurrency=concurrency, tmp=tmp,
            )
        )
        recovery = check_recovery(
            store,
            requests=requests // 2, users=users,
            concurrency=concurrency, tmp=tmp,
        )

    by_mode = {row["mode"]: row for row in modes}
    results = {
        "quick": args.quick,
        "deployments": [
            {"n": n, "alpha": str(alpha)} for n, alpha in DEPLOYMENTS
        ],
        "modes": modes,
        "recovery": recovery,
        "targets": {"durable_group_qps": DURABLE_QPS_FLOOR},
    }

    lines = ["durable privacy budgets under serving load:"]
    for row in modes:
        lines.append(
            "  {mode:>7}: {qps:10.0f} req/s  p50={latency_p50_ms:6.2f}ms "
            "p99={latency_p99_ms:6.2f}ms  ({requests:,} requests)"
            .format(**row)
        )
    lines.append(
        "  durability cost (group vs memory): {cost:.1f}%".format(
            cost=100.0
            * (1 - by_mode["group"]["qps"] / by_mode["memory"]["qps"])
        )
    )
    lines.append(
        "  recovery: {recovered_releases:,}/{acknowledged:,} acknowledged "
        "charges recovered exactly ({recovered_users} users, "
        "{journal_records} journal records; integrity OK)".format(**recovery)
    )
    emit("durability", "\n".join(lines))
    emit_bench("durability", results)

    if args.check:
        group_qps = by_mode["group"]["qps"]
        if group_qps < DURABLE_QPS_FLOOR:
            print(
                f"durability target missed: group-commit qps "
                f"{group_qps:.0f}/s < {DURABLE_QPS_FLOOR:.0e}/s"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
