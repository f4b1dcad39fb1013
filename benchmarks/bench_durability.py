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
  cold and verified: the journal passes the read-only integrity check,
  the release count equals the acknowledged 200s, and every user's
  recovered budget is the exact product of the alphas of that user's
  acknowledged publishes (no admitted charge lost).

Every load runs through :func:`_serving.drive`.

Standalone: ``PYTHONPATH=src:benchmarks python benchmarks/bench_durability.py``
(``--quick`` for a CI smoke run; ``--check`` enforces the durable
group-commit floor — **>= 5e3 batched requests/sec** — in quick mode
too, plus the recovery assertions). Emits a ``BENCH {json}`` line and
writes ``benchmarks/out/BENCH_durability.json``.
"""

import asyncio
import sys
import tempfile
from pathlib import Path

from _report import emit, emit_bench, parse_args
from _serving import (
    DEPLOYMENTS,
    build_store,
    check_recovered_ledger,
    drive,
    mixed,
)

from repro.serving import InProcessClient, MechanismServer

#: Acceptance floor (enforced by ``--check`` even in quick mode): the
#: group-commit durable serving path must sustain this request rate.
DURABLE_QPS_FLOOR = 5e3


def serve_load(store, *, requests, users, concurrency, seed, **ledger):
    """One loaded run, then a graceful stop; every request must 200."""
    server = MechanismServer(store, audit_rate=0.0, seed=seed, **ledger)
    server.load_store()
    client = InProcessClient(server)
    load = asyncio.run(drive(
        lambda _: client, mixed(users),
        requests=requests, concurrency=concurrency,
    ))
    assert load.counts() == {200: requests}, (
        f"unexpected statuses: {load.counts()}"
    )
    asyncio.run(server.stop())  # graceful: final group commit + close
    return load


def bench_mode(store, mode, *, requests, users, concurrency, tmp):
    """One loaded run in one budget-backend mode."""
    ledger = {}
    if mode != "memory":
        ledger = {"ledger_dir": str(Path(tmp) / f"ledger-{mode}"),
                  "ledger_fsync": mode}
    load = serve_load(
        store, requests=requests, users=users, concurrency=concurrency,
        seed=23, **ledger,
    )
    result = {
        **load.row(),
        "mode": mode,
        "simulated_users": users,
        "concurrency": concurrency,
    }
    if ledger:
        result["ledger_dir"] = ledger["ledger_dir"]
    return result


def check_recovery(store, *, requests, users, concurrency, tmp):
    """Cold-reopen the group-commit ledger: no admitted charge lost, and
    every user's budget is the exact product of its acknowledged alphas."""
    ledger_dir = Path(tmp) / "ledger-recovery"
    load = serve_load(
        store, requests=requests, users=users, concurrency=concurrency,
        seed=29, ledger_dir=ledger_dir, ledger_fsync="group",
    )
    return {
        "requests": requests,
        **check_recovered_ledger(ledger_dir, load, mixed(users), exact=True),
        "integrity_ok": True,
        "admitted_charge_lost": False,
    }


def main(argv=None):
    args = parse_args(
        argv, __doc__,
        "exit nonzero when the durable group-commit floor "
        "(>= 5e3 requests/sec) is missed — enforced in quick mode too",
    )

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
    emit_bench("durability", results, quick=args.quick)

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
