"""Benchmark: the asyncio micro-batched mechanism-serving pipeline.

PR 7 adds ``repro serve`` (:mod:`repro.serving`): compiled artifacts are
loaded (and verified) once at startup, concurrent ``POST /publish``
requests park on futures while a :class:`repro.serving.batching.MicroBatcher`
coalesces them, and each flush executes mixed ``n``/``alpha``
deployments as **one** fused
:class:`repro.sampling.alias.HeterogeneousAliasSampler` gather — with
per-user :class:`repro.release.durable_ledger.MemoryLedgerBook`
accounting charged atomically before every draw and an online audit
hook replaying a sampled slice of responses against the independently
re-derived geometric law.

Measured here (in-process transport, so the number is the serving
pipeline itself — batcher, ledger, fused gather, audit hook — not TCP):

* ``served_qps`` — end-to-end requests/sec with micro-batching, at
  10k-1M simulated users, with p50/p99 request latency;
* ``unbatched_qps`` — the same load with ``batch_window=0`` (every
  query is its own gather), the baseline micro-batching is measured
  against;
* ``http_round_trips_per_second`` — a small keep-alive HTTP/1.1 smoke
  over a real socket.

Correctness is asserted in every mode (``--quick`` included):

* every response is drawn zero-solve from a load-time-verified
  artifact (the store's compile counter is frozen while serving);
* concurrent racers sharing one user never overspend the budget floor:
  with ``floor = alpha^K`` exactly ``K`` of their requests get 200 and
  the rest get 429, no matter the interleaving;
* the online auditor flags an injected tampered kernel (spec claims
  ``alpha=1/2``, kernel actually serves ``alpha=7/8``) while leaving
  the honest deployments unflagged.

Standalone: ``PYTHONPATH=src:benchmarks python benchmarks/bench_serving.py``
(``--quick`` for a CI smoke run; ``--check`` enforces the throughput
floor — **>= 1e4 batched requests/sec** — in quick mode too, plus all
of the assertions above). Emits a ``BENCH {json}`` line and writes
``benchmarks/out/BENCH_serving.json``.
"""

import argparse
import asyncio
import itertools
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from _report import emit, emit_bench

from repro.release.artifacts import (
    ArtifactSpec,
    ArtifactStore,
    MechanismArtifact,
    compile_artifact,
)
from repro.serving import HTTPServingClient, InProcessClient, MechanismServer

#: Acceptance floor (enforced by ``--check`` even in quick mode): the
#: micro-batched in-process serving path must sustain this request rate.
SERVED_QPS_FLOOR = 1e4

#: The deployment mix every load run cycles through (mixed n and alpha,
#: so each flush exercises the fused heterogeneous gather).
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
    """Drive ``requests`` publishes through ``concurrency`` workers.

    Returns wall seconds, per-request latencies, and status counts.
    """
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


def bench_load(store, *, requests, users, concurrency, window):
    """One load run; asserts the zero-solve and all-200 invariants."""
    server = MechanismServer(
        store,
        batch_window=window,
        audit_rate=0.02,
        audit_every=64,
        seed=23,
        audit_seed=29,
    )
    server.load_store()
    assert all(d.verification.ok for d in server.deployments)
    compiles_before = store.stats["compiles"]
    wall, latencies, statuses = asyncio.run(
        drive(server, requests=requests, users=users, concurrency=concurrency)
    )
    assert store.stats["compiles"] == compiles_before, (
        "the request path must never compile (zero-solve serving)"
    )
    assert statuses == {200: requests}, f"unexpected statuses: {statuses}"
    assert server.metrics["published"] == requests
    stats = server.batcher.stats
    return {
        "requests": requests,
        "simulated_users": users,
        "concurrency": concurrency,
        "batch_window_seconds": window,
        "wall_seconds": wall,
        "qps": requests / wall,
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "batches": stats["batches"],
        "mean_batch": stats["queries"] / max(stats["batches"], 1),
        "max_batch": stats["max_batch"],
        "audited_responses": server.metrics["audit_recorded"],
    }


def check_ledger_floor(store):
    """Concurrent racers on one user admit exactly K = log_alpha(floor)."""
    K = 8
    alpha = Fraction(1, 2)
    server = MechanismServer(
        store, floor=alpha**K, batch_window=0.001, audit_rate=0.0, seed=31
    )
    server.load_store()
    client = InProcessClient(server)

    async def go():
        return await asyncio.gather(*[
            client.publish(user="racer", n=8, alpha="1/2", true_result=4)
            for _ in range(5 * K)
        ])

    results = asyncio.run(go())
    granted = sum(1 for status, _ in results if status == 200)
    rejected = sum(1 for status, _ in results if status == 429)
    assert granted == K, (
        f"floor alpha^{K} must admit exactly {K} concurrent releases, "
        f"admitted {granted}"
    )
    assert rejected == 5 * K - K
    ledger = server.ledgers.view("racer")
    assert ledger.cumulative_alpha == alpha**K >= ledger.floor
    return {
        "floor": str(alpha**K),
        "racers": 5 * K,
        "granted": granted,
        "rejected": rejected,
        "cumulative_alpha": str(ledger.cumulative_alpha),
        "overspent": False,
    }


def check_audit_catches_tamper(store, *, requests):
    """The online audit flags a kernel tampered after verification."""
    server = MechanismServer(
        store,
        batch_window=0.001,
        audit_rate=1.0,
        audit_every=8,
        seed=37,
        audit_seed=41,
    )
    server.load_store()
    # Forge a deployment whose spec claims alpha=1/2 while its kernel
    # actually serves alpha=7/8 noise. Load-time verification would
    # refuse it (that refusal is exercised in the test suite), so it is
    # injected through the explicit verify=False port: the online audit
    # is the layer that must catch what load verification never saw.
    honest = compile_artifact("geometric", 6, Fraction(7, 8))
    forged_spec = ArtifactSpec("geometric", 6, Fraction(1, 2))
    forged = MechanismArtifact(
        forged_spec, honest.kernel, sampler=honest.sampler
    )
    server.load_artifact(forged, verify=False)
    client = InProcessClient(server)
    rng = np.random.default_rng(43)
    rows = rng.integers(0, 7, size=requests)

    async def go():
        for start in range(0, requests, 512):
            chunk = rows[start:start + 512]
            await asyncio.gather(*[
                client.publish(
                    user=f"t{start + j}", n=6, alpha="1/2",
                    true_result=int(row),
                )
                for j, row in enumerate(chunk)
            ])

    asyncio.run(go())
    findings = server.audit()
    by_key = {f.key: f for f in findings}
    tampered = by_key[forged_spec.key()]
    assert tampered.flagged, (
        "online audit failed to flag the tampered kernel "
        f"(chi2={tampered.statistic:.1f} vs limit {tampered.limit:.1f})"
    )
    honest_flagged = [
        f for f in findings if f.flagged and f.key != forged_spec.key()
    ]
    assert not honest_flagged, (
        f"audit false-flagged honest deployments: {honest_flagged}"
    )
    return {
        "requests": requests,
        "tampered_chi_square": tampered.statistic,
        "limit": tampered.limit,
        "tampered_flagged": True,
        "honest_false_flags": 0,
    }


def bench_http_smoke(store, *, requests):
    """Keep-alive HTTP/1.1 round-trips over a real socket."""
    server = MechanismServer(
        store, batch_window=0.0005, audit_rate=0.0, seed=47
    )
    server.load_store()

    async def go():
        await server.start(port=0)
        client = HTTPServingClient("127.0.0.1", server.port)
        try:
            start = time.perf_counter()
            for i in range(requests):
                status, _ = await client.publish(
                    user=f"h{i}", n=8, alpha="1/2", true_result=3
                )
                assert status == 200
            wall = time.perf_counter() - start
            status, health = await client.get("/healthz")
            assert status == 200 and health["status"] == "ok"
        finally:
            await client.close()
            await server.stop()
        return wall

    wall = asyncio.run(go())
    return {
        "requests": requests,
        "wall_seconds": wall,
        "http_round_trips_per_second": requests / wall,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small load for a CI smoke run"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when the batched serving floor "
        "(>= 1e4 requests/sec) is missed — enforced in quick mode too",
    )
    args = parser.parse_args(argv)

    if args.quick:
        scales = [(10_000, 30_000)]
        concurrency, http_requests, audit_requests = 1024, 300, 4096
    else:
        scales = [(10_000, 60_000), (100_000, 120_000), (1_000_000, 240_000)]
        concurrency, http_requests, audit_requests = 2048, 2000, 16_384

    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmp:
        store = build_store(tmp)
        batched = [
            bench_load(
                store,
                requests=requests,
                users=users,
                concurrency=concurrency,
                window=0.001,
            )
            for users, requests in scales
        ]
        unbatched = bench_load(
            store,
            requests=scales[0][1],
            users=scales[0][0],
            concurrency=concurrency,
            window=0.0,
        )
        ledger = check_ledger_floor(store)
        audit = check_audit_catches_tamper(store, requests=audit_requests)
        http = bench_http_smoke(store, requests=http_requests)

    results = {
        "quick": args.quick,
        "deployments": [
            {"n": n, "alpha": str(alpha)} for n, alpha in DEPLOYMENTS
        ],
        "batched": batched,
        "unbatched": unbatched,
        "ledger_concurrency": ledger,
        "audit_tamper": audit,
        "http_smoke": http,
        "targets": {"served_qps": SERVED_QPS_FLOOR},
    }

    lines = ["micro-batched mechanism serving (in-process pipeline):"]
    for row in batched:
        lines.append(
            "  users={simulated_users:>9,} requests={requests:>7,}: "
            "{qps:10.0f} req/s  p50={latency_p50_ms:6.2f}ms "
            "p99={latency_p99_ms:6.2f}ms  mean batch={mean_batch:7.1f}"
            .format(**row)
        )
    lines.append(
        "  unbatched baseline (window=0):       {qps:10.0f} req/s  "
        "p50={latency_p50_ms:6.2f}ms p99={latency_p99_ms:6.2f}ms".format(
            **unbatched
        )
    )
    lines.append(
        "  batched vs unbatched: {ratio:.1f}x".format(
            ratio=batched[0]["qps"] / unbatched["qps"]
        )
    )
    lines.append(
        "  ledger: floor={floor} admitted exactly {granted} of {racers} "
        "racers (asserted, never overspent)".format(**ledger)
    )
    lines.append(
        "  audit: tampered kernel chi2={tampered_chi_square:.0f} vs "
        "limit {limit:.0f} -> flagged; 0 honest false flags "
        "(asserted)".format(**audit)
    )
    lines.append(
        "  http/1.1 keep-alive smoke: "
        "{http_round_trips_per_second:.0f} round-trips/s".format(**http)
    )
    emit("serving", "\n".join(lines))
    emit_bench("serving", results)

    if args.check:
        failures = [
            f"batched qps at {row['simulated_users']} users: "
            f"{row['qps']:.0f}/s < {SERVED_QPS_FLOOR:.0e}/s"
            for row in batched
            if row["qps"] < SERVED_QPS_FLOOR
        ]
        if failures:
            print("serving targets missed: " + "; ".join(failures))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
