"""Benchmark: telemetry overhead on the batched serving hot path.

Every server runs with metrics and budget-burn gauges on (there is no
telemetry-off mode), and sampled tracing is opt-in. Observability that
slows the thing it observes gets turned off, so this benchmark puts a
hard ceiling on what tracing adds and checks what the default reports:

* ``traced_overhead_fraction`` — extra per-request CPU cost of 1% trace
  sampling to a JSONL sink (the opt-in ``--trace-rate 0.01``
  configuration) over the default server on the micro-batched
  in-process serving path: warmed-up, interleaved rounds of the same
  load with mode order alternated each round; the overhead is the
  smaller of two noise-conservative estimators of the per-request
  ``process_time`` delta (per-mode minima, paired per-round median —
  see :func:`bench_overhead`) over the best default run. ``--check``
  fails above :data:`TRACED_OVERHEAD_CEILING` (**~9.5%**).
* ``p99_agreement`` — the log-bucketed histogram's p99 versus the
  exact sorted-array p99 of the same latency samples. The histogram
  reports a bucket upper bound, so the ratio must land in
  ``[1, LATENCY_BUCKET_GROWTH]`` (asserted).
* trace completeness — a traced publish through a durable group-commit
  ledger yields **one** trace ID whose spans cover
  ``server.publish`` → ``ledger.charge`` → ``wal.append`` →
  ``wal.fsync`` → ``batch.flush`` → ``sampler.gather`` (asserted); a
  sample of those spans is archived to
  ``benchmarks/out/trace_sample.jsonl`` for the CI artifact.
* scrape sanity — the Prometheus exposition from the loaded server
  parses: every expected family present, histogram buckets cumulative.
* scrape scaling — scrape p50/p99 with 10k and 200k users in the book
  (and 1M outside ``--quick``), with publishes between scrapes so the
  book's per-charge upkeep of the burn aggregates runs. ``--check``
  fails when the 200k median exceeds :data:`SCRAPE_GROWTH_CEILING`
  (**2x**) the 10k median. The overhead rounds scrape once before
  their load, so both modes pay for that upkeep.

Standalone:
``PYTHONPATH=src:benchmarks python benchmarks/bench_observability.py``
(``--quick`` for CI; ``--check`` enforces the overhead ceiling and the
assertions above). Emits ``BENCH {json}`` and writes
``benchmarks/out/BENCH_observability.json``.
"""

import argparse
import asyncio
import gc
import itertools
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from _report import OUT_DIR, emit, emit_bench

from repro.obs.metrics import LATENCY_BUCKET_GROWTH
from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.release.durable_ledger import MemoryLedgerBook
from repro.serving import InProcessClient, MechanismServer

#: Ceiling for the opt-in 1%-sampled-tracing configuration (metrics +
#: ``--trace-rate 0.01`` + JSONL sink) over the default server: each
#: traced request pays for span records plus its share of the
#: batch-broadcast spans. Traced may cost at most 15% over a server
#: without telemetry, which may itself cost at most 5%; measured against
#: the default server, that is 1.15 / 1.05 - 1. The ceiling trips on
#: gross regressions (e.g. per-record serialization on the emit path,
#: which this benchmark caught during development).
TRACED_OVERHEAD_CEILING = 1.15 / 1.05 - 1

#: ``--check`` fails when the median scrape at the larger of these user
#: counts costs more than :data:`SCRAPE_GROWTH_CEILING` times the median
#: at the smaller: a scrape must cost O(metric series), not O(users) (a
#: scrape that walks every user grows ~20x over this range).
SCRAPE_GROWTH_SIZES = (10_000, 200_000)
SCRAPE_GROWTH_CEILING = 2.0

DEPLOYMENTS = [
    (8, Fraction(1, 2)),
    (40, Fraction(1, 4)),
    (100, Fraction(2, 3)),
]

#: Span names one traced publish must cover on a durable server.
EXPECTED_SPANS = {
    "server.publish",
    "ledger.charge",
    "wal.append",
    "wal.fsync",
    "batch.flush",
    "sampler.gather",
}


def build_store(path) -> ArtifactStore:
    store = ArtifactStore(path)
    for n, alpha in DEPLOYMENTS:
        store.get_or_compile(ArtifactSpec("geometric", n, alpha))
    return store


async def drive(server, *, requests, users, concurrency, warmup=0):
    client = InProcessClient(server)
    mix = [(n, str(alpha), n // 2) for n, alpha in DEPLOYMENTS]
    statuses: dict[int, int] = {}

    async def load(count, record):
        counter = itertools.count()

        async def worker():
            while True:
                i = next(counter)
                if i >= count:
                    return
                n, alpha, row = mix[i % len(mix)]
                status, _ = await client.publish(
                    user=f"u{i % users}", n=n, alpha=alpha, true_result=row
                )
                if record:
                    statuses[status] = statuses.get(status, 0) + 1

        await asyncio.gather(*[worker() for _ in range(concurrency)])

    if warmup:
        # Untimed pre-load on this exact server: warms the adaptive
        # interpreter's caches for the mode-specific code paths so the
        # measured section does not pay first-iterations costs.
        await load(warmup, False)
    # Cyclic GC fires by allocation count, so *when* it lands inside
    # the measured window is luck — and each pass scans the ~concurrency
    # parked tasks, which swamps a few-percent effect. Park it for the
    # bounded measured load; refcounting still reclaims acyclic garbage.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        cpu_start = time.process_time()
        await load(requests, True)
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return wall, cpu, statuses


#: Overhead-run configurations, measured against each other:
#: ``metrics`` is the shipped default (metrics + burn gauges, tracing
#: off); ``traced`` adds the opt-in 1% trace sampling to a JSONL sink.
MODES = ("metrics", "traced")


def one_run(store, *, mode, trace_dir, requests, users, concurrency):
    """One load run; returns ``(qps, cpu_us_per_request)``.

    The measured path is the production serving shape: a durable
    group-commit ledger (fresh WAL per run) under the micro-batcher, so
    every mode pays for real charge journaling and the traced mode
    exercises the full span vocabulary including ``wal.append`` /
    ``wal.fsync``. Asserts every request succeeded. The CPU figure
    (``time.process_time`` over the drive) is what the overhead check
    compares: telemetry cost is CPU work, and process CPU time is
    robust to the tens-of-percent wall-clock swings a noisy shared
    host injects into back-to-back runs.
    """
    with tempfile.TemporaryDirectory(prefix="bench-obs-wal-") as ledger:
        kwargs = dict(
            ledger_dir=ledger, ledger_fsync="group",
            batch_window=0.001, audit_rate=0.0, seed=23,
        )
        if mode == "traced":
            kwargs.update(
                trace_rate=0.01, trace_dir=trace_dir, trace_seed=7
            )
        server = MechanismServer(store, **kwargs)
        server.load_store()
        # A scraped server keeps its budget-burn aggregates current on
        # every charge; scrape once so the load pays for that.
        server.telemetry.registry.render()
        warmup = max(1000, requests // 10)
        gc.collect()  # start every run from the same heap state
        wall, cpu, statuses = asyncio.run(
            drive(
                server, requests=requests, users=users,
                concurrency=concurrency, warmup=warmup,
            )
        )
        assert statuses == {200: requests}, (
            f"unexpected statuses: {statuses}"
        )
        snapshot = server.telemetry.registry.snapshot()
        published = sum(
            value
            for labels, value in snapshot["repro_requests_total"][
                "series"
            ].items()
            if labels.startswith("publish,")
        )
        assert published == requests + warmup
        server.telemetry.close()
    return requests / wall, cpu / requests * 1e6


def bench_overhead(store, *, requests, users, concurrency, rounds):
    """Interleaved metrics/traced rounds; overhead per-request CPU.

    A discarded warmup run absorbs cold-start effects (allocator and
    code-path warmup), and rotating which mode goes first each round
    cancels the monotone drift a busy host shows across back-to-back
    runs. Contention noise is one-sided — a co-tenant can only *add*
    CPU to a run — so any single estimator is biased upward by noise,
    and the check uses the smaller of two independently conservative
    ones:

    * *floor*: ``min(traced) - min(metrics)`` over all rounds — exact
      when each mode lands at least one quiet window, but one lucky-low
      baseline (or a busy stretch that denies the instrumented mode a
      quiet slot) can manufacture phantom overhead;
    * *paired median*: the two modes of one round run back-to-back
      in the same time window, so their per-round delta cancels
      cross-round drift; the median over rounds discards rounds where
      a tenant landed mid-run, but keeps the one-sided skew of
      within-round noise.

    A real regression inflates every instrumented run and therefore
    *both* estimators; taking their minimum only sheds noise bias. The
    delta is normalized by the best default run.
    """
    runs: dict[str, list] = {mode: [] for mode in MODES}
    with tempfile.TemporaryDirectory(prefix="bench-obs-trace-") as traces:
        one_run(  # warmup, discarded
            store, mode="metrics", trace_dir=None,
            requests=requests, users=users, concurrency=concurrency,
        )
        for round_index in range(rounds):
            offset = round_index % len(MODES)
            order = MODES[offset:] + MODES[:offset]
            for mode in order:
                result = one_run(
                    store,
                    mode=mode,
                    trace_dir=traces if mode == "traced" else None,
                    requests=requests,
                    users=users,
                    concurrency=concurrency,
                )
                runs[mode].append(result)
    best = {mode: min(cpu for _, cpu in runs[mode]) for mode in MODES}
    cpu = {mode: [c for _, c in runs[mode]] for mode in MODES}

    report = {
        "requests": requests,
        "simulated_users": users,
        "concurrency": concurrency,
        "rounds": rounds,
        "traced_overhead_fraction": overhead_fraction(
            cpu["traced"], cpu["metrics"]
        ),
    }
    for mode in MODES:
        report[f"qps_{mode}"] = max(qps for qps, _ in runs[mode])
        report[f"cpu_us_{mode}"] = best[mode]
        report[f"cpu_us_{mode}_runs"] = [cpu for _, cpu in runs[mode]]
    return report


def overhead_fraction(instrumented: list, baseline: list) -> float:
    """Per-request CPU overhead of ``instrumented`` over ``baseline``
    runs of one round each: the smaller of the paired per-round median
    delta and the delta of the per-mode minima, over the best baseline
    run (see :func:`bench_overhead`)."""
    deltas = sorted(on - off for on, off in zip(instrumented, baseline))
    mid = len(deltas) // 2
    median = (
        deltas[mid]
        if len(deltas) % 2
        else (deltas[mid - 1] + deltas[mid]) / 2.0
    )
    floor = min(instrumented) - min(baseline)
    return min(median, floor) / min(baseline)


def bench_p99_agreement(store, *, requests, concurrency):
    """Histogram p99 vs exact sorted p99 of the same latency samples."""
    server = MechanismServer(
        store, batch_window=0.001, audit_rate=0.0, seed=29
    )
    server.load_store()
    client = InProcessClient(server)
    latencies = np.zeros(requests)
    counter = itertools.count()

    async def worker():
        while True:
            i = next(counter)
            if i >= requests:
                return
            begin = time.perf_counter()
            status, _ = await client.publish(
                user=f"p{i}", n=8, alpha="1/2", true_result=3
            )
            latencies[i] = time.perf_counter() - begin
            assert status == 200

    async def go():
        await asyncio.gather(*[worker() for _ in range(concurrency)])

    asyncio.run(go())
    # The per-deployment latency histogram observed the same requests
    # from inside the server (server-side clock, so compare shapes, not
    # identical samples: both measure the same publish round-trips).
    # Snapshot first: it runs the collectors, folding any deferred
    # latency samples into the histogram children.
    server.telemetry.registry.snapshot()
    family = server.telemetry.publish_latency
    ((_, child),) = [
        (labels, child)
        for labels, child in family.children()
        if child.count == requests
    ]
    hist_p99 = child.quantile(0.99)
    hist_p50 = child.quantile(0.5)
    exact_p99 = float(np.percentile(np.sort(latencies), 99))
    ratio = hist_p99 / exact_p99
    # The histogram reports the bucket's upper bound of its own
    # server-side samples; client-observed latency is >= server-side, so
    # allow one bucket of slack on both sides of the growth factor.
    assert ratio <= LATENCY_BUCKET_GROWTH * LATENCY_BUCKET_GROWTH, (
        f"histogram p99 {hist_p99:.6f}s vs exact {exact_p99:.6f}s: "
        f"ratio {ratio:.2f} above one-bucket guarantee"
    )
    assert ratio >= 1.0 / (LATENCY_BUCKET_GROWTH * LATENCY_BUCKET_GROWTH)
    return {
        "requests": requests,
        "hist_p50_ms": hist_p50 * 1e3,
        "hist_p99_ms": hist_p99 * 1e3,
        "exact_p99_ms": exact_p99 * 1e3,
        "p99_agreement_ratio": ratio,
        "bucket_growth": LATENCY_BUCKET_GROWTH,
    }


def check_trace_completeness(store, *, requests):
    """Every traced publish carries one trace covering charge→sample."""
    with tempfile.TemporaryDirectory(prefix="bench-obs-ledger-") as ledger:
        server = MechanismServer(
            store,
            ledger_dir=ledger,
            ledger_fsync="group",
            batch_window=0.001,
            audit_rate=0.0,
            seed=31,
            trace_rate=1.0,
            trace_seed=3,
        )
        server.load_store()
        client = InProcessClient(server)

        async def go():
            results = await asyncio.gather(*[
                client.publish(
                    user=f"t{i}", n=8, alpha="1/2", true_result=3
                )
                for i in range(requests)
            ])
            await server.stop()
            return results

        results = asyncio.run(go())
        tracer = server.telemetry.tracer
        spans_by_trace: dict[str, set] = {}
        records = tracer.recent(tracer.emitted)
        for record in records:
            spans_by_trace.setdefault(record["trace"], set()).add(
                record["name"]
            )
        complete = 0
        for status, body in results:
            assert status == 200
            names = spans_by_trace.get(body["trace"], set())
            assert EXPECTED_SPANS <= names, (
                f"trace {body['trace']} missing spans: "
                f"{EXPECTED_SPANS - names}"
            )
            complete += 1
        # Archive a sample of real spans for the CI artifact.
        OUT_DIR.mkdir(exist_ok=True)
        import json

        sample_trace = results[0][1]["trace"]
        with open(OUT_DIR / "trace_sample.jsonl", "w") as handle:
            for record in reversed(records):
                if record["trace"] == sample_trace:
                    handle.write(
                        json.dumps(record, default=str) + "\n"
                    )
        return {
            "requests": requests,
            "traced": complete,
            "spans_per_trace": sorted(
                spans_by_trace[sample_trace]
            ),
            "sample": "benchmarks/out/trace_sample.jsonl",
        }


def bench_scrape_scaling(store, *, sizes, scrapes, publishes_between):
    """Scrape latency against the number of users in the book.

    Each size pre-charges that many users once (alphas cycling over the
    deployments, floor 1/4096, so users sit at different distances from
    the floor), takes the first scrape — the one that builds the book's
    burn aggregates with one walk — and then times ``scrapes`` scrapes
    of ``GET /metrics?format=prometheus``, each after
    ``publishes_between`` publishes, so the per-charge upkeep of the
    aggregates runs between scrapes. A scrape that walked the users
    would grow with the size; one that reads the aggregates does not.
    """
    floor = Fraction(1, 4096)
    rows = []
    for size in sizes:
        book = MemoryLedgerBook(floor)
        for i in range(size):
            book.charge(f"s{i}", DEPLOYMENTS[i % len(DEPLOYMENTS)][1])
        server = MechanismServer(
            store, ledger=book, floor=floor, batch_window=0.001,
            audit_rate=0.0, seed=41,
        )
        server.load_store()
        client = InProcessClient(server)

        async def scrape():
            t0 = time.perf_counter()
            status, _ = await server.handle_request(
                "GET", "/metrics?format=prometheus"
            )
            assert status == 200
            return time.perf_counter() - t0

        async def go():
            first = await scrape()
            times = []
            for j in range(scrapes):
                for k in range(publishes_between):
                    n, alpha = DEPLOYMENTS[k % len(DEPLOYMENTS)]
                    user = f"s{(j * publishes_between + k) * 7919 % size}"
                    status, _ = await client.publish(
                        user=user, n=n, alpha=str(alpha), true_result=n // 2
                    )
                    assert status in (200, 429), status
                times.append(await scrape())
            await server.stop()
            return first, times

        first, times = asyncio.run(go())
        times_ms = np.array(times) * 1e3
        rows.append({
            "users": size,
            "scrapes": scrapes,
            "publishes_between": publishes_between,
            "first_scrape_ms": first * 1e3,
            "scrape_p50_ms": float(np.percentile(times_ms, 50)),
            "scrape_p99_ms": float(np.percentile(times_ms, 99)),
        })
        del book, server, client
        gc.collect()
    by_size = {row["users"]: row for row in rows}
    small, large = SCRAPE_GROWTH_SIZES
    return {
        "rows": rows,
        "p50_growth": by_size[large]["scrape_p50_ms"]
        / by_size[small]["scrape_p50_ms"],
    }


def check_scrape(store):
    """The Prometheus exposition parses and carries the key families."""
    server = MechanismServer(
        store, batch_window=0.001, audit_rate=0.0, seed=37
    )
    server.load_store()
    client = InProcessClient(server)

    async def go():
        await client.publish(user="s", n=8, alpha="1/2", true_result=3)
        result = await server.handle_request(
            "GET", "/metrics?format=prometheus"
        )
        await server.stop()
        return result

    status, body = asyncio.run(go())
    assert status == 200
    text = body["__raw__"]
    for family in (
        "repro_requests_total",
        "repro_publish_latency_seconds",
        "repro_ledger_charges_total",
        "repro_batch_flushes_total",
    ):
        assert f"# TYPE {family}" in text, f"missing family {family}"
    # Cumulative bucket counts are monotone within each series.
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_publish_latency_seconds_bucket")
    ]
    assert counts == sorted(counts)
    return {
        "exposition_lines": len(text.splitlines()),
        "families": text.count("# TYPE "),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small load for a CI smoke run"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when 1%% tracing costs more than "
        f"{TRACED_OVERHEAD_CEILING * 100:.1f}%% over the default server or "
        f"the scrape median grows more than {SCRAPE_GROWTH_CEILING:.0f}x "
        "with the user count",
    )
    args = parser.parse_args(argv)

    if args.quick:
        # Many small interleaved rounds beat few large ones: both
        # overhead estimators (per-mode floor, paired per-round
        # median) sharpen with more alternations — more chances at a
        # quiet window, more noisy rounds for the median to discard.
        requests, users, concurrency, rounds = 8_000, 10_000, 1024, 12
        trace_requests = 64
        scrape_sizes = SCRAPE_GROWTH_SIZES
    else:
        requests, users, concurrency, rounds = 30_000, 10_000, 2048, 12
        trace_requests = 256
        scrape_sizes = SCRAPE_GROWTH_SIZES + (1_000_000,)

    with tempfile.TemporaryDirectory(prefix="bench-obs-") as tmp:
        store = build_store(tmp)
        overhead = bench_overhead(
            store,
            requests=requests,
            users=users,
            concurrency=concurrency,
            rounds=rounds,
        )
        agreement = bench_p99_agreement(
            store, requests=min(requests, 30_000), concurrency=concurrency
        )
        traces = check_trace_completeness(store, requests=trace_requests)
        scrape = check_scrape(store)
        scaling = bench_scrape_scaling(
            store, sizes=scrape_sizes, scrapes=200, publishes_between=8
        )

    results = {
        "quick": args.quick,
        "deployments": [
            {"n": n, "alpha": str(alpha)} for n, alpha in DEPLOYMENTS
        ],
        "overhead": overhead,
        "p99_agreement": agreement,
        "trace_completeness": traces,
        "scrape": scrape,
        "scrape_scaling": scaling,
        "targets": {
            "traced_overhead_ceiling": TRACED_OVERHEAD_CEILING,
            "scrape_growth_ceiling": SCRAPE_GROWTH_CEILING,
        },
    }

    lines = ["tracing overhead on the batched serving path:"]
    lines.append(
        "  default: {cpu_us_metrics:.2f}us/req cpu "
        "({qps_metrics:.0f} req/s)   +1% traces: {cpu_us_traced:.2f}us/req "
        "({traced_overhead_fraction:+.1%}, ceiling "
        "{traced_ceiling:.1%})".format(
            traced_ceiling=TRACED_OVERHEAD_CEILING, **overhead
        )
    )
    lines.append(
        "  latency histogram: p50={hist_p50_ms:.2f}ms "
        "p99={hist_p99_ms:.2f}ms vs exact p99={exact_p99_ms:.2f}ms "
        "(ratio {p99_agreement_ratio:.2f}, bucket growth "
        "{bucket_growth:.0f}x)".format(**agreement)
    )
    lines.append(
        "  traces: {traced}/{requests} publishes each carried one "
        "trace covering {spans}".format(
            spans=", ".join(traces["spans_per_trace"]), **traces
        )
    )
    lines.append(
        "  scrape: {families} families, {exposition_lines} exposition "
        "lines, buckets monotone (asserted)".format(**scrape)
    )
    for row in scaling["rows"]:
        lines.append(
            "  scrape at {users:,} users: p50={scrape_p50_ms:.2f}ms "
            "p99={scrape_p99_ms:.2f}ms over {scrapes} scrapes, "
            "{publishes_between} publishes apart (first scrape "
            "{first_scrape_ms:.0f}ms builds the aggregates)".format(**row)
        )
    lines.append(
        "  scrape p50 growth {small:,} -> {large:,} users: {growth:.2f}x "
        "(ceiling {ceiling:.0f}x)".format(
            small=SCRAPE_GROWTH_SIZES[0],
            large=SCRAPE_GROWTH_SIZES[1],
            growth=scaling["p50_growth"],
            ceiling=SCRAPE_GROWTH_CEILING,
        )
    )
    emit("observability", "\n".join(lines))
    emit_bench("observability", results)

    if args.check:
        failures = []
        if overhead["traced_overhead_fraction"] > TRACED_OVERHEAD_CEILING:
            failures.append(
                "1%-traced overhead over the default server "
                f"{overhead['traced_overhead_fraction']:.1%} > "
                f"{TRACED_OVERHEAD_CEILING:.1%}"
            )
        if scaling["p50_growth"] > SCRAPE_GROWTH_CEILING:
            failures.append(
                f"scrape p50 grew {scaling['p50_growth']:.2f}x from "
                f"{SCRAPE_GROWTH_SIZES[0]:,} to {SCRAPE_GROWTH_SIZES[1]:,} "
                f"users > {SCRAPE_GROWTH_CEILING:.0f}x"
            )
        if failures:
            print(
                "observability target missed: " + "; ".join(failures)
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
