"""Benchmark: telemetry overhead on the batched serving hot path.

Every server runs with metrics and budget-burn gauges on (there is no
telemetry-off mode), and sampled tracing is opt-in. Observability that
slows the thing it observes gets turned off, so this benchmark puts a
hard ceiling on what tracing adds and checks what the default reports:

* ``traced_overhead_fraction`` — extra per-request CPU cost of 1% trace
  sampling to a JSONL sink (the opt-in ``--trace-rate 0.01``
  configuration) over the default server on the micro-batched
  in-process serving path. :data:`OVERHEAD_ROUNDS` warmed-up rounds
  each serve the same load once per mode, interleaved in halves
  (A, B, B, A, with the first mode alternated each round); the overhead
  is the median over rounds of the per-round traced/default ratio of
  ``process_time`` per request, minus 1
  (:func:`_serving.paired_overhead`). ``--check``
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

Every load runs through :func:`_serving.drive`.

Standalone:
``PYTHONPATH=src:benchmarks python benchmarks/bench_observability.py``
(``--quick`` for CI; ``--check`` enforces the overhead ceiling and the
assertions above). Emits ``BENCH {json}`` and writes
``benchmarks/out/BENCH_observability.json``.
"""

import asyncio
import gc
import json
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from _report import OUT_DIR, emit, emit_bench, parse_args
from _serving import (
    DEPLOYMENTS,
    build_store,
    drive,
    mixed,
    paired_overhead,
)

from repro.obs.metrics import LATENCY_BUCKET_GROWTH
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

#: Paired rounds behind the overhead verdict. Ten back-to-back quick runs
#: on a 2-core box gave 360 per-round ratios with median 1.027 and
#: quartiles 0.984-1.073. Resampled, their median over 12 rounds crosses
#: the ceiling in 0.55% of unchanged-tree runs and over 36 rounds in
#: none of 50,000, while 36 rounds with every ratio 0.10 higher cross it
#: in 99.6%.
OVERHEAD_ROUNDS = 36

#: ``--check`` fails when the median scrape at the larger of these user
#: counts costs more than :data:`SCRAPE_GROWTH_CEILING` times the median
#: at the smaller: a scrape must cost O(metric series), not O(users) (a
#: scrape that walks every user grows ~20x over this range).
SCRAPE_GROWTH_SIZES = (10_000, 200_000)
SCRAPE_GROWTH_CEILING = 2.0

#: Span names one traced publish must cover on a durable server.
EXPECTED_SPANS = {
    "server.publish",
    "ledger.charge",
    "wal.append",
    "wal.fsync",
    "batch.flush",
    "sampler.gather",
}

#: Overhead-run configurations, measured against each other:
#: ``metrics`` is the shipped default (metrics + burn gauges, tracing
#: off); ``traced`` adds the opt-in 1% trace sampling to a JSONL sink.
MODES = ("metrics", "traced")


def one_round(store, *, first, trace_dir, requests, users, concurrency):
    """One paired round; returns ``{mode: (cpu_seconds, wall_seconds)}``.

    The measured path is the production serving shape: a durable
    group-commit ledger (a fresh WAL per server) under the
    micro-batcher, so both modes pay for real charge journaling and the
    traced mode exercises the full span vocabulary including
    ``wal.append`` / ``wal.fsync``. Both modes' servers are live at once;
    each is warmed up, and then each serves ``requests`` measured
    publishes in two halves, in the order ``first``, other, other,
    ``first``, so a change in the machine's speed during the round lands
    on both modes alike. Asserts every request succeeded. The CPU figure
    (``time.process_time`` over the measured halves) is what the
    overhead check compares: telemetry cost is CPU work, and process CPU
    time is robust to the tens-of-percent wall-clock swings a noisy
    shared host injects into back-to-back runs.
    """
    warmup, half = max(1000, requests // 10), requests // 2
    request = mixed(users)
    with tempfile.TemporaryDirectory(prefix="bench-obs-wal-") as ledgers:
        clients = {}
        for mode in MODES:
            kwargs = dict(
                ledger_dir=f"{ledgers}/{mode}", ledger_fsync="group",
                audit_rate=0.0, seed=23,
            )
            if mode == "traced":
                kwargs.update(
                    trace_rate=0.01, trace_dir=trace_dir, trace_seed=7
                )
            server = MechanismServer(store, **kwargs)
            server.load_store()
            # A scraped server keeps its budget-burn aggregates current
            # on every charge; scrape once so the load pays for that.
            server.telemetry.registry.render()
            clients[mode] = InProcessClient(server)
        (other,) = set(MODES) - {first}

        async def go():
            # Untimed pre-loads on these exact servers: warm the
            # adaptive interpreter's caches for the mode-specific code
            # paths so the measured halves do not pay first-iterations
            # costs.
            for mode in MODES:
                await drive(
                    lambda _: clients[mode], request,
                    requests=warmup, concurrency=concurrency,
                )
            # Cyclic GC fires by allocation count, so *when* it lands
            # inside a measured half is luck — and each pass scans the
            # ~concurrency parked tasks, which swamps a few-percent
            # effect. Park it for the bounded measured halves;
            # refcounting still reclaims acyclic garbage.
            loads = {mode: [] for mode in MODES}
            gc.collect()
            gc.disable()
            try:
                for mode in (first, other, other, first):
                    offset = half * len(loads[mode])
                    loads[mode].append(await drive(
                        lambda _: clients[mode],
                        lambda i: request(offset + i),
                        requests=half, concurrency=concurrency,
                    ))
            finally:
                gc.enable()
            return loads

        gc.collect()  # start every round from the same heap state
        loads = asyncio.run(go())
        for mode, client in clients.items():
            for load in loads[mode]:
                assert load.counts() == {200: half}, (
                    f"unexpected statuses: {load.counts()}"
                )
            snapshot = client.server.telemetry.registry.snapshot()
            published = sum(
                value
                for labels, value in snapshot["repro_requests_total"][
                    "series"
                ].items()
                if labels.startswith("publish,")
            )
            assert published == requests + warmup
            client.server.telemetry.close()
    return {
        mode: (sum(load.cpu for load in loads[mode]),
               sum(load.wall for load in loads[mode]))
        for mode in MODES
    }


def bench_overhead(store, *, requests, users, concurrency, rounds):
    """Paired metrics/traced rounds; the overhead by
    :func:`_serving.paired_overhead`.

    A discarded warmup round absorbs cold-start effects (allocator and
    code-path warmup). Each round measures both modes interleaved (see
    :func:`one_round`), so their ratio cancels the speed the machine had
    during that round, and which mode goes first alternates between
    rounds. The median over rounds discards the rounds a co-tenant
    disturbed anyway.
    """
    runs: dict[str, list] = {mode: [] for mode in MODES}
    with tempfile.TemporaryDirectory(prefix="bench-obs-trace-") as traces:
        for round_index in range(rounds + 1):
            result = one_round(
                store,
                first=MODES[round_index % len(MODES)],
                trace_dir=traces,
                requests=requests,
                users=users,
                concurrency=concurrency,
            )
            if round_index:  # round 0 is the discarded warmup
                for mode in MODES:
                    runs[mode].append(result[mode])
    cpu = {
        mode: [seconds / requests * 1e6 for seconds, _ in runs[mode]]
        for mode in MODES
    }
    ratios = np.array(cpu["traced"]) / np.array(cpu["metrics"])
    report = {
        "requests": requests,
        "simulated_users": users,
        "concurrency": concurrency,
        "rounds": rounds,
        "traced_overhead_fraction": paired_overhead(
            cpu["traced"], cpu["metrics"]
        ),
        "traced_ratio_quartiles": np.percentile(ratios, [25, 75]).tolist(),
    }
    for mode in MODES:
        report[f"qps_{mode}"] = float(np.median(
            [requests / wall for _, wall in runs[mode]]
        ))
        report[f"cpu_us_{mode}"] = float(np.median(cpu[mode]))
        report[f"cpu_us_{mode}_runs"] = cpu[mode]
    return report


def bench_p99_agreement(store, *, requests, concurrency):
    """Histogram p99 vs exact sorted p99 of the same latency samples."""
    server = MechanismServer(store, audit_rate=0.0, seed=29)
    server.load_store()
    client = InProcessClient(server)
    load = asyncio.run(drive(
        lambda _: client,
        lambda i: {"user": f"p{i}", "n": 8, "alpha": "1/2",
                   "true_result": 3},
        requests=requests, concurrency=concurrency,
    ))
    assert load.counts() == {200: requests}, load.counts()
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
    exact_p99 = float(np.percentile(np.sort(load.latencies), 99))
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
            audit_rate=0.0,
            seed=31,
            trace_rate=1.0,
            trace_seed=3,
        )
        server.load_store()
        client = InProcessClient(server)
        traces = {}

        def on_answer(i, status, body):
            assert status == 200, status
            traces[i] = body["trace"]

        async def go():
            # One caller per publish: all of them are in flight at once.
            await drive(
                lambda _: client,
                lambda i: {"user": f"t{i}", "n": 8, "alpha": "1/2",
                           "true_result": 3},
                requests=requests, concurrency=requests,
                on_answer=on_answer,
            )
            await server.stop()

        asyncio.run(go())
        tracer = server.telemetry.tracer
        spans_by_trace: dict[str, set] = {}
        records = tracer.recent(tracer.emitted)
        for record in records:
            spans_by_trace.setdefault(record["trace"], set()).add(
                record["name"]
            )
        for trace in traces.values():
            names = spans_by_trace.get(trace, set())
            assert EXPECTED_SPANS <= names, (
                f"trace {trace} missing spans: {EXPECTED_SPANS - names}"
            )
        # Archive a sample of real spans for the CI artifact.
        OUT_DIR.mkdir(exist_ok=True)
        sample_trace = traces[0]
        with open(OUT_DIR / "trace_sample.jsonl", "w") as handle:
            for record in reversed(records):
                if record["trace"] == sample_trace:
                    handle.write(
                        json.dumps(record, default=str) + "\n"
                    )
        return {
            "requests": requests,
            "traced": len(traces),
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
            store, ledger=book, floor=floor, audit_rate=0.0, seed=41,
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

        def request(j, k):
            n, alpha = DEPLOYMENTS[k % len(DEPLOYMENTS)]
            user = f"s{(j * publishes_between + k) * 7919 % size}"
            return {"user": user, "n": n, "alpha": str(alpha),
                    "true_result": n // 2}

        async def go():
            first = await scrape()
            times = []
            for j in range(scrapes):
                load = await drive(
                    lambda _: client,
                    lambda k: request(j, k),
                    requests=publishes_between, concurrency=1,
                )
                assert set(load.counts()) <= {200, 429}, load.counts()
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
    server = MechanismServer(store, audit_rate=0.0, seed=37)
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
    args = parse_args(
        argv, __doc__,
        "exit nonzero when 1%% tracing costs more than "
        f"{TRACED_OVERHEAD_CEILING * 100:.1f}%% over the default server or "
        f"the scrape median grows more than {SCRAPE_GROWTH_CEILING:.0f}x "
        "with the user count",
    )

    if args.quick:
        requests, users, concurrency = 8_000, 10_000, 1024
        trace_requests = 64
        scrape_sizes = SCRAPE_GROWTH_SIZES
    else:
        requests, users, concurrency = 30_000, 10_000, 2048
        trace_requests = 256
        scrape_sizes = SCRAPE_GROWTH_SIZES + (1_000_000,)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as tmp:
        store = build_store(tmp)
        overhead = bench_overhead(
            store,
            requests=requests,
            users=users,
            concurrency=concurrency,
            rounds=OVERHEAD_ROUNDS,
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
        "wall_seconds": time.perf_counter() - start,
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
        "({qps_metrics:.0f} req/s)   +1% traces: {cpu_us_traced:.2f}us/req"
        .format(**overhead)
    )
    lines.append(
        "  traced/default per round: paired median "
        "{traced_overhead_fraction:+.1%} over {rounds} rounds, quartiles "
        "{q1:.3f}-{q3:.3f} (ceiling {traced_ceiling:+.1%})".format(
            traced_ceiling=TRACED_OVERHEAD_CEILING,
            q1=overhead["traced_ratio_quartiles"][0],
            q3=overhead["traced_ratio_quartiles"][1],
            **overhead,
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
    lines.append(f"  wall time: {results['wall_seconds']:.0f}s")
    emit("observability", "\n".join(lines))
    emit_bench("observability", results, quick=args.quick)

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
