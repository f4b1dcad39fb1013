"""The load driver shared by the serving benchmarks.

``bench_serving``, ``bench_durability``, ``bench_observability`` and
``bench_fleet`` all price one deployment shape: geometric artifacts
published to many users under a per-user budget. This module holds what
they share:

* :data:`DEPLOYMENTS` and :func:`build_store`: the mixed-``n``/``alpha``
  store every in-process load cycles through, so each flush is a fused
  heterogeneous gather;
* :func:`drive`: one closed-loop publish driver for in-process and HTTP
  clients, returning a :class:`Load` whose :meth:`Load.row` is the one
  per-load report row;
* :func:`check_recovered_ledger`: a reopened WAL holds every
  acknowledged charge;
* :func:`paired_overhead`: the one rule the observability gate applies
  to paired rounds.

The driver parks nothing: no warm-up and no cyclic-GC pause. A bench that
needs either wraps its own measured loads.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import DurableLedger, verify_ledger_dir

#: The deployment mix of the in-process loads: mixed n and alpha, so
#: every flush exercises the fused heterogeneous gather.
DEPLOYMENTS = [
    (8, Fraction(1, 2)),
    (40, Fraction(1, 4)),
    (100, Fraction(2, 3)),
]

#: The status :func:`drive` records for a publish that raised.
LOST = 0


def build_store(path) -> ArtifactStore:
    """An artifact store at ``path`` holding every deployment."""
    store = ArtifactStore(path)
    for n, alpha in DEPLOYMENTS:
        store.get_or_compile(ArtifactSpec("geometric", n, alpha))
    return store


def mixed(users):
    """Request ``i``: user ``u{i % users}`` on deployment ``i % 3``."""
    mix = [(n, str(alpha)) for n, alpha in DEPLOYMENTS]

    def request(i):
        n, alpha = mix[i % len(mix)]
        return {"user": f"u{i % users}", "n": n, "alpha": alpha,
                "true_result": n // 2}
    return request


@dataclass
class Load:
    """One load: per-request arrays indexed by request number, and the
    wall and process-CPU seconds of the whole load."""

    statuses: np.ndarray
    latencies: np.ndarray
    wall: float
    cpu: float

    def counts(self) -> dict:
        """``{status: requests}``; :data:`LOST` counts the raised ones."""
        values, counts = np.unique(self.statuses, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def row(self) -> dict:
        """The per-load report row."""
        requests = len(self.statuses)
        return {
            "requests": requests,
            "wall_seconds": self.wall,
            "qps": requests / self.wall,
            "latency_p50_ms": float(np.percentile(self.latencies, 50)) * 1e3,
            "latency_p99_ms": float(np.percentile(self.latencies, 99)) * 1e3,
        }


async def drive(connect, request, *, requests, concurrency, on_answer=None):
    """Publish requests ``0 .. requests-1`` from ``concurrency`` callers.

    A closed loop: each caller takes the next unpublished index, awaits
    ``client.publish(**request(i))`` and only then takes another, so
    every index is published exactly once. Caller ``c`` gets its client
    from ``connect(c)``: a factory returning one shared
    ``InProcessClient``, or a new ``HTTPServingClient`` per caller, whose
    automatic idempotency keys make its retries safe. Each caller closes
    its client when it is done; an ``InProcessClient`` holds nothing to
    close.

    A publish that raises is recorded as :data:`LOST`, and its caller's
    connection is dropped (the next publish reconnects): that is how a
    load rides through a worker killed mid-traffic. ``on_answer(i,
    status, body)`` runs once for every request, the lost ones with a
    ``None`` body.

    Returns a :class:`Load`. Its CPU seconds are this process's, so they
    cover an in-process server and not an HTTP server in another one.
    """
    statuses = np.full(requests, LOST)
    latencies = np.zeros(requests)
    indices = iter(range(requests))

    async def close(client):
        if hasattr(client, "close"):
            await client.close()

    async def caller(c):
        client = connect(c)
        try:
            for i in indices:
                begin = time.perf_counter()
                try:
                    status, body = await client.publish(**request(i))
                except Exception:  # noqa: BLE001 - a lost publish is data
                    status, body = LOST, None
                    await close(client)
                latencies[i] = time.perf_counter() - begin
                statuses[i] = status
                if on_answer is not None:
                    on_answer(i, status, body)
        finally:
            await close(client)

    start, cpu_start = time.perf_counter(), time.process_time()
    await asyncio.gather(*[caller(c) for c in range(concurrency)])
    cpu = time.process_time() - cpu_start
    return Load(statuses, latencies, time.perf_counter() - start, cpu)


def check_recovered_ledger(ledger_dir, load, request, *, exact) -> dict:
    """Reopen a WAL a load wrote and check every acknowledged charge.

    The directory must pass :func:`verify_ledger_dir` and reopen. Each
    user's acknowledged product is the exact product of the alphas of
    that user's 200s in ``load`` (requests built by ``request``). With
    ``exact`` (after a graceful stop) every user's recovered cumulative
    alpha equals it and the release count equals the 200s. Otherwise
    (after a kill) a recovered alpha may be smaller and the count larger:
    a charge in flight when its worker died was never acknowledged, and
    keeping it only over-protects. A user absent from the book has alpha
    1; one with no 200 has product 1.
    """
    acked = {}
    for i in np.flatnonzero(load.statuses == 200).tolist():
        publish = request(i)
        user = publish["user"]
        acked[user] = acked.get(user, 1) * Fraction(publish["alpha"])
    report = verify_ledger_dir(ledger_dir)
    assert report["ok"], f"ledger failed integrity check: {report['failures']}"
    book = DurableLedger(ledger_dir)
    try:
        budgets = book.budgets()
    finally:
        book.close()
    recovered = {budget.user: budget.cumulative_alpha for budget in budgets}
    releases = sum(budget.releases for budget in budgets)
    acknowledged = int((load.statuses == 200).sum())

    def holds(got, want):
        return got == want if exact else got <= want

    wrong = sorted(
        user for user in acked.keys() | recovered.keys()
        if not holds(recovered.get(user, 1), acked.get(user, 1))
    )
    assert not wrong, (
        f"{len(wrong)} users' recovered alphas disagree with their "
        f"acknowledged charges, e.g. {wrong[:3]}"
    )
    assert releases == acknowledged if exact else releases >= acknowledged, (
        f"recovered {releases} charges for {acknowledged} acknowledged "
        "responses"
    )
    return {
        "acknowledged": acknowledged,
        "recovered_releases": releases,
        "recovered_users": report["users"],
        "users_checked": len(acked),
        "journal_records": report["records"],
        "snapshot_seq": report["snapshot_seq"],
    }


def paired_overhead(instrumented, baseline) -> float:
    """The overhead of ``instrumented`` over ``baseline`` CPU per request.

    Element ``r`` of each list comes from round ``r``, which measured
    both at the same time (interleaved, or back to back). The rule is
    the median over rounds of the per-round ratio
    ``instrumented / baseline``, minus 1. A round's ratio cancels
    whatever the machine's speed was during that round, so drift between
    rounds cannot move the verdict, and the median ignores the rounds a
    co-tenant disturbed. (The minimum of each mode has neither property:
    one unusually quiet run moves it.)
    """
    ratios = np.asarray(instrumented) / np.asarray(baseline)
    return float(np.median(ratios)) - 1.0
