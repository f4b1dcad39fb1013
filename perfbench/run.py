"""Run one benchmark workload against ``repro serve`` and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the server is imported from
``src/``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with
no tracing. With ``--trace 1`` the same workload runs twice on fresh
servers — untraced, then with the layer tracer of ``perfbench.layers``
installed — and the metrics are the per-layer metrics, including the
tracing overhead (traced minus untraced). A failed correctness check
fails the run: it prints ``"correct": false`` with no metrics and exits
with status 1.

Everything the run writes lives under ``.perfbench-work/`` in the
checkout and is removed before it exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if __package__ in (None, ""):
    # Run as a script: import this package from the checkout root and
    # repro from its src/, instead of from this directory.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.inputs import (  # noqa: E402
    SHAPES,
    expected_statuses,
    prefill_plan,
    request_pool,
    user_name,
)
from perfbench.layers import (  # noqa: E402
    PREDICTIONS,
    SPAN_LAYER,
    WAITING,
    Tracer,
    fold,
    load_spans,
)
from perfbench.loadgen import ResponseParser, encode_request  # noqa: E402
from perfbench.serve import peak_rss_kb  # noqa: E402
from perfbench.stats import median, supported_percentile  # noqa: E402

#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Seconds of load before the measured window opens.
WARMUP = 1.5
#: ``http-scrape-wal``: the scraper's pause, in completed publishes.
#: One publish queues behind each scrape, so 9 pins that share at 10%:
#: publish p95 then falls among the publishes a scrape stalled.
SCRAPE_EVERY = 9
#: ``inproc-c1024-wal`` admission bound: above the 1024 callers, so
#: admission control runs on every publish but never sheds.
QUEUE_DEPTH = 2048

END_TO_END = (
    ("publish_qps", "1/s"),
    ("publish_p50_ms", "ms"),
    ("publish_p95_ms", "ms"),
    ("cpu_us_per_publish", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("batching.wait_us", "us"),
    ("batching.flush_us", "us"),
    ("batching.batches", "count"),
    ("batching.mean_batch", "count"),
    ("batching.deadline_share", "share"),
    ("server.publish.self_us", "us"),
    ("server.http_overhead_us", "us"),
    ("durable_ledger.charge.calls", "count"),
    ("durable_ledger.charge.us", "us"),
    ("durable_ledger.charge.p99_us", "us"),
    ("durable_ledger.charge.share", "share"),
    ("durable_ledger.charge.charged_ratio", "share"),
    ("durable_ledger.fs_write.us", "us"),
    ("durable_ledger.compactions", "count"),
    ("durable_ledger.journal_bytes_per_charge", "B"),
    ("durable_ledger.sync.us", "us"),
    ("durable_ledger.fs_fsync.us", "us"),
    ("durable_ledger.view.calls_per_scrape", "count"),
    ("durable_ledger.view.us", "us"),
    ("durable_ledger.open_s", "s"),
    ("alias.gather.us", "us"),
    ("alias.gather.ns_per_query", "ns"),
    ("audit.observe.us", "us"),
    ("audit.sweep.calls", "count"),
    ("audit.sweep.us", "us"),
    ("overload.admit.us", "us"),
    ("metrics.scrape.us", "us"),
    ("metrics.burn_walk.us", "us"),
    ("artifacts.load_s", "s"),
    ("artifacts.verify_s", "s"),
    ("loadgen.cpu_share", "share"),
    ("loadgen.max_lag_ms", "ms"),
    ("trace.overhead.publish_qps", "1/s"),
    ("trace.overhead.cpu_us_per_publish", "us"),
    ("latency.p50_residual_share", "share"),
    ("cpu.unattributed_us_per_publish", "us"),
)


class RunFailed(Exception):
    """A correctness check failed; the run yields no numbers."""

    def __init__(self, message: str, attempted: int = 0, failed: int = 1):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


# -- shared helpers -----------------------------------------------------------

def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build_store(shape, work: str) -> str:
    """Compile the workload's deployments into a fresh store (not timed:
    compiling is ``repro compile``'s job, not the server's)."""
    from repro.release.artifacts import ArtifactSpec, ArtifactStore

    path = os.path.join(work, "store")
    store = ArtifactStore(path)
    for dep in shape.mix:
        store.get_or_compile(ArtifactSpec(
            kind=dep.get("kind", "geometric"),
            n=dep["n"],
            alpha=Fraction(dep["alpha"]),
            loss=dep.get("loss"),
            side=tuple(dep["side"]) if dep.get("side") else None,
        ))
    return path


def check_statuses(pool, statuses, prefill, floor) -> tuple[int, dict]:
    """Compare every publish status (in send order) with the exact
    admissions the pre-charges and the floor allow. Returns the number of
    mismatches and, per user, the alphas of the acknowledged 200s."""
    sent = [
        (user_name(pool.users[k % len(pool)]), pool.alpha_of(k))
        for k in range(len(statuses))
    ]
    expected = expected_statuses(prefill, floor, sent)
    mismatches = sum(1 for a, b in zip(statuses, expected) if a != b)
    acked: dict = {}
    for (user, alpha), status in zip(sent, statuses):
        if status == 200:
            acked.setdefault(user, []).append(alpha)
    return mismatches, acked


def check_wal(directory: str, prefill: dict, acked: dict) -> int:
    """After a WAL run: ``verify_ledger_dir`` passes, and the recovered
    book holds exactly the pre-charges plus the acknowledged 200s — the
    same release count and the same exact cumulative alpha per user.
    Returns the number of users that disagree."""
    from repro.release.durable_ledger import DurableLedger, verify_ledger_dir

    report = verify_ledger_dir(directory)
    if not report["ok"]:
        raise RunFailed(f"verify_ledger_dir failed: {report['failures']}")
    ledger = DurableLedger(directory, fsync="off")
    wrong = 0
    try:
        users = set(prefill) | set(acked)
        if ledger.users() != len(users):
            wrong += abs(ledger.users() - len(users))
        for user in users:
            alphas = acked.get(user, [])
            cumulative = Fraction(prefill.get(user, 1))
            for alpha in alphas:
                cumulative *= alpha
            releases = len(alphas) + (1 if user in prefill else 0)
            view = ledger.view(user)
            if (view is None or view.releases != releases
                    or view.cumulative_alpha != cumulative):
                wrong += 1
    finally:
        ledger.close()
    return wrong


def check_server(stats_loaded, stats_exit, findings) -> None:
    for counter in ("compiles", "stores"):
        if stats_exit.get(counter) != stats_loaded.get(counter):
            raise RunFailed(
                f"store {counter} counter moved while serving: "
                f"{stats_loaded.get(counter)} -> {stats_exit.get(counter)}"
            )
    flagged = [f["key"] for f in findings if f["flagged"]]
    if flagged:
        raise RunFailed(f"final audit flagged honest deployments {flagged}")


# -- the HTTP workloads ------------------------------------------------------

def prefill_ledger(workload: str, seed: int, directory: str):
    """Fill a WAL directory through the public ``DurableLedger.charge``
    (not timed: it makes the workload's starting state)."""
    from repro.release.durable_ledger import DurableLedger

    plan = prefill_plan(workload, seed)
    floor = SHAPES[workload].floor
    ledger = DurableLedger(directory, floor, fsync="off", snapshot_every=0)
    try:
        for user, alpha in plan.items():
            if not ledger.charge(user, alpha, label="prefill").charged:
                raise RunFailed(f"pre-charge of {user} was refused")
        ledger.compact()
    finally:
        ledger.close()
    return plan, floor


def spawn_server(serve_args, report, spans, log_path):
    """Start the serving process; returns ``(proc, port, setup seconds)``
    where set-up runs from process start until the server answers
    ``GET /readyz``. The process is killed if it never gets there."""
    cmd = [sys.executable, os.path.join(HERE, "serve.py"), "--report", report]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--"] + serve_args
    log = open(log_path, "a")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=log, text=True)
    log.close()
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("serving on http://"):
                port = int(line.split()[2].rsplit(":", 1)[1])
                if _ready(port):
                    return proc, port, time.perf_counter() - t0
                break
        raise RunFailed("server exited or failed before serving")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    finally:
        watchdog.cancel()


def _ready(port: int) -> bool:
    """One ``GET /readyz`` round trip: a 200 means the server's loop is
    serving (and its signal handlers are installed)."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(encode_request("GET", "/readyz"))
        parser = ResponseParser()
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return False
            responses = parser.feed(data)
            if responses:
                return responses[0][0] == 200


def stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("server did not drain within 60 s of SIGTERM")
    if proc.returncode != 0:
        raise RunFailed(f"server exited with status {proc.returncode}")


def http_phase(args, shape, work, store, setups, trace, tag) -> dict:
    ledger_dir = os.path.join(work, f"ledger-{tag}")
    prefill, floor = prefill_ledger(args.workload, args.seed, ledger_dir)
    serve_args = ["serve", "--store", store, "--port", "0",
                  "--seed", str(args.seed), "--ledger-dir", ledger_dir,
                  "--floor", str(floor)]
    log_path = os.path.join(work, "server.log")
    setup_times = []
    for i in range(setups):
        last = i == setups - 1
        spans = os.path.join(work, f"spans-{tag}.npz") if trace else None
        report_path = os.path.join(work, f"report-{tag}-{i}.json")
        proc, port, seconds = spawn_server(
            serve_args, report_path, spans if last else None, log_path
        )
        setup_times.append(seconds)
        if not last:
            stop_server(proc)
    gen_path = os.path.join(work, f"loadgen-{tag}.json")
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "loadgen.py"),
             "--port", str(port), "--server-pid", str(proc.pid),
             "--workload", args.workload, "--seed", str(args.seed),
             "--warmup", str(WARMUP), "--seconds", str(args.seconds),
             "--scrape-every", str(SCRAPE_EVERY),
             "--out", gen_path],
            cwd=ROOT, check=True, timeout=WARMUP + args.seconds + 90,
        )
    except subprocess.SubprocessError as err:
        raise RunFailed(f"load generator failed: {err}") from None
    finally:
        stop_server(proc)
    with open(gen_path) as handle:
        gen = json.load(handle)
    with open(report_path) as handle:
        report = json.load(handle)

    attempted = gen["attempted_in_window"]
    if gen["saturated"]:
        raise RunFailed(
            f"load generator saturated (CPU share {gen['cpu_share']:.2f}); "
            "refusing to report", attempted,
        )
    failures = gen["transport_errors"] + gen["bad_values"] + gen["unfinished"]
    pool = request_pool(args.workload, args.seed)
    mismatches, acked = check_statuses(pool, gen["statuses"], prefill, floor)
    failures += mismatches
    if failures:
        raise RunFailed(
            f"{failures} failed publishes ({gen['transport_errors']} "
            f"transport, {gen['bad_values']} bad values, {mismatches} "
            f"statuses the floor does not predict)", attempted, failures,
        )
    check_server(report["store_stats_loaded"], report["store_stats_exit"],
                 report["audit"])
    wrong = check_wal(ledger_dir, prefill, acked)
    if wrong:
        raise RunFailed(f"{wrong} users' recovered budgets differ from "
                        "the acknowledged 200s", attempted, wrong)
    phase = {
        "setup_times": setup_times,
        "latencies": gen["latencies"],
        "completed": gen["completed_in_window"],
        "attempted": attempted,
        "rejected": sum(1 for s in gen["statuses"] if s == 429),
        "seconds": args.seconds,
        "cpu_s": gen["server_cpu_s"],
        "wall_s": gen["wall_s"],
        "rss_kb": report["peak_rss_kb"],
        "window": gen["window"],
        "ledger": report["ledger"],
        "loadgen_cpu_share": gen["cpu_share"],
        "loadgen_max_lag_ms": gen["max_lag_ms"],
        "http": True,
    }
    if trace:
        phase["spans"] = load_spans(spans)
    return phase


# -- the in-process workload -------------------------------------------------

async def _drive_inproc(server, pool, shape, seconds, probe_lag) -> dict:
    from repro.serving import InProcessClient

    client = InProcessClient(server)
    state = {"next": 0, "bad": 0, "unexpected": 0}
    latencies, done_times, acked = [], [], []
    window = [float("inf"), float("inf")]
    marks = {}
    lag = [0.0]

    async def caller():
        while True:
            sent = time.perf_counter()
            if sent >= window[1]:
                return
            k = state["next"]
            state["next"] = k + 1
            payload = pool.payload(k)
            status, response = await client.publish(**payload)
            done = time.perf_counter()
            if status == 200:
                acked.append(k)
                value = response.get("value")
                if not (isinstance(value, int)
                        and 0 <= value <= payload["n"]):
                    state["bad"] += 1
            else:
                state["unexpected"] += 1
            if window[0] <= sent < window[1]:
                latencies.append(done - sent)
            done_times.append(done)

    async def marker():
        await asyncio.sleep(WARMUP)
        window[0] = time.perf_counter()
        window[1] = window[0] + seconds
        marks["start"] = (window[0], time.process_time())
        await asyncio.sleep(seconds)
        marks["end"] = (time.perf_counter(), time.process_time())

    async def ticker():
        while time.perf_counter() < window[1]:
            due = time.perf_counter() + 0.01
            await asyncio.sleep(0.01)
            lag[0] = max(lag[0], time.perf_counter() - due)

    tasks = [marker()] + [caller() for _ in range(shape.concurrency)]
    if probe_lag:
        tasks.append(ticker())
    await asyncio.gather(*tasks)
    (t_start, cpu_start), (t_end, cpu_end) = marks["start"], marks["end"]
    in_marks = sum(1 for t in done_times if t_start <= t < t_end)
    in_window = sum(1 for t in done_times if window[0] <= t < window[1])
    return {
        "latencies": latencies,
        "completed": in_window,
        "attempted": len(latencies),
        "acked": acked,
        "bad": state["bad"],
        "unexpected": state["unexpected"],
        "cpu_per_publish_s": (cpu_end - cpu_start) / max(in_marks, 1),
        "cpu_s": cpu_end - cpu_start,
        "wall_s": t_end - t_start,
        "window": window,
        "max_lag_ms": 1e3 * lag[0],
    }


async def _finish_inproc(server) -> dict:
    findings = server.audit()
    ledger_stats = server.ledgers.stats()
    await server.stop()
    return {"findings": findings, "ledger": ledger_stats}


def inproc_phase(args, shape, work, store, setups, trace, tag) -> dict:
    from repro import clear_caches
    from repro.release.artifacts import ArtifactStore
    from repro.serving import MechanismServer

    pool = request_pool(args.workload, args.seed)
    ledger_dir = os.path.join(work, f"ledger-{tag}")
    prefill, floor = prefill_ledger(args.workload, args.seed, ledger_dir)
    tracer = Tracer().install() if trace else None
    try:
        setup_times = []
        for i in range(setups):
            clear_caches()
            t0 = time.perf_counter()
            server = MechanismServer(
                ArtifactStore(store), floor=floor, ledger_dir=ledger_dir,
                ledger_fsync="group", queue_depth=QUEUE_DEPTH,
                seed=args.seed,
            )
            if not server.load_store() or server.quarantined:
                raise RunFailed("the store did not load cleanly")
            setup_times.append(time.perf_counter() - t0)
            if i < setups - 1:
                asyncio.run(server.stop())
        stats_loaded = dict(server.store.stats)
        drive = asyncio.run(
            _drive_inproc(server, pool, shape, args.seconds, trace)
        )
        finish = asyncio.run(_finish_inproc(server))
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_kb = peak_rss_kb()
    attempted = drive["attempted"]
    failures = drive["bad"] + drive["unexpected"]
    if failures:
        raise RunFailed(f"{failures} failed publishes", attempted, failures)
    check_server(
        stats_loaded, dict(server.store.stats),
        [{"key": f.key[:12], "flagged": f.flagged}
         for f in finish["findings"]],
    )
    acked: dict = {}
    for k in drive["acked"]:
        acked.setdefault(user_name(pool.users[k % len(pool)]), []).append(
            pool.alpha_of(k)
        )
    wrong = check_wal(ledger_dir, prefill, acked)
    if wrong:
        raise RunFailed(f"{wrong} users' recovered budgets differ from the "
                        "acknowledged 200s", attempted, wrong)
    phase = {
        "setup_times": setup_times,
        "latencies": drive["latencies"],
        "completed": drive["completed"],
        "attempted": attempted,
        "rejected": 0,
        "seconds": args.seconds,
        "cpu_s": drive["cpu_s"],
        "cpu_per_publish_s": drive["cpu_per_publish_s"],
        "wall_s": drive["wall_s"],
        "rss_kb": rss_kb,
        "window": drive["window"],
        "ledger": finish["ledger"],
        "loadgen_cpu_share": None,
        "loadgen_max_lag_ms": drive["max_lag_ms"],
        "http": False,
    }
    if tracer is not None:
        phase["spans"] = tracer.log.columns()
        tracer.log.save(os.path.join(work, f"spans-{tag}.npz"))
    return phase


# -- metrics -------------------------------------------------------------------

def end_to_end(phase) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced phase, plus sample counts."""
    lat = phase["latencies"]
    p50 = supported_percentile(lat, 0.50)
    p95 = supported_percentile(lat, 0.95)
    if p50 is None or p95 is None:
        raise RunFailed(
            f"{len(lat)} publish latencies cannot support p95 (ten samples "
            "must lie beyond it)", phase["attempted"],
        )
    completed = phase["completed"]
    if "cpu_per_publish_s" in phase:
        cpu_us = 1e6 * phase["cpu_per_publish_s"]
    else:
        cpu_us = 1e6 * phase["cpu_s"] / max(completed, 1)
    values = {
        "publish_qps": completed / phase["seconds"],
        "publish_p50_ms": 1e3 * p50,
        "publish_p95_ms": 1e3 * p95,
        "cpu_us_per_publish": cpu_us,
        "setup_s": median(phase["setup_times"]),
        "peak_rss_mb": phase["rss_kb"] / 1024.0,
    }
    notes = {
        "publish_qps": f"{completed} completed in {phase['seconds']} s "
                       f"(closed loop, {phase['rejected']} floor 429s)",
        "publish_p50_ms": f"n={len(lat)}",
        "publish_p95_ms": f"n={len(lat)}",
        "cpu_us_per_publish": "serving process CPU / completed",
        "setup_s": f"median of {len(phase['setup_times'])} set-ups",
        "peak_rss_mb": "serving process VmHWM",
    }
    return values, notes


def layer_metrics(base, traced):
    """Per-layer metrics of a traced phase, with the tracing overhead
    against the untraced phase of the same run. Also returns the tables
    the run prints."""
    cols = traced["spans"]
    win = fold(cols, tuple(traced["window"]))
    whole = fold(cols)
    per = win.per_request
    publishes = max(win.publishes, 1)
    client = np.asarray(traced["latencies"])
    client_mean = float(client.mean()) if len(client) else 0.0
    client_p50 = supported_percentile(traced["latencies"], 0.5) or 0.0
    server_side = per.get("handle" if traced["http"] else "publish")
    server_p50 = (float(np.median(server_side))
                  if server_side is not None and len(server_side) else 0.0)

    def mean_of(key):
        values = per.get(key)
        return float(values.mean()) if values is not None and len(values) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    flushes = win.calls.get("batching.flush", 0)
    charges = win.calls.get("durable_ledger.charge", 0)
    charged = win.sizes.get("durable_ledger.charge", 0)
    scrapes = whole.scrape_durations
    scrape_us = 1e6 * float(scrapes.mean()) if len(scrapes) else 0.0
    base_values, _ = end_to_end(dict(base, setup_times=[0.0]))
    traced_values, _ = end_to_end(dict(traced, setup_times=[0.0]))
    busy = {
        name: seconds for name, seconds in win.self_total.items()
        if name not in WAITING
    }
    busy_total = sum(busy.values())
    cpu_s = traced["cpu_s"]
    metrics = {
        "batching.wait_us": 1e6 * mean_of("wait"),
        "batching.flush_us": win.mean_us("batching.flush"),
        "batching.batches": flushes,
        "batching.mean_batch": ratio(win.sizes.get("batching.flush", 0),
                                     flushes),
        "batching.deadline_share": ratio(win.flush_reasons.get("deadline", 0),
                                         flushes),
        "server.publish.self_us": 1e6 * mean_of("publish_self"),
        # Medians, not means: a publish queued behind a scrape waits in
        # the socket, which would count as transport in a mean.
        "server.http_overhead_us": 1e6 * (client_p50 - server_p50),
        "durable_ledger.charge.calls": charges,
        "durable_ledger.charge.us": win.mean_us("durable_ledger.charge"),
        "durable_ledger.charge.p99_us": win.p99_us("durable_ledger.charge"),
        "durable_ledger.charge.share": ratio(mean_of("charge"), client_mean),
        "durable_ledger.charge.charged_ratio": ratio(charged, charges),
        "durable_ledger.fs_write.us": win.mean_us("durable_ledger.fs_write"),
        "durable_ledger.compactions": traced["ledger"].get("compactions", 0),
        "durable_ledger.journal_bytes_per_charge": ratio(
            win.sizes.get("durable_ledger.fs_write", 0), charged
        ),
        "durable_ledger.sync.us": win.mean_us("durable_ledger.sync"),
        "durable_ledger.fs_fsync.us": win.mean_us("durable_ledger.fs_fsync"),
        "durable_ledger.view.calls_per_scrape": ratio(
            whole.views_in_scrapes, len(whole.scrape_durations)
        ),
        "durable_ledger.view.us": whole.mean_us("durable_ledger.view"),
        "durable_ledger.open_s": whole.total.get("durable_ledger.open", 0.0),
        "alias.gather.us": win.mean_us("alias.gather"),
        "alias.gather.ns_per_query": 1e9 * ratio(
            win.total.get("alias.gather", 0.0),
            win.sizes.get("alias.gather", 0),
        ),
        "audit.observe.us": win.mean_us("audit.observe"),
        "audit.sweep.calls": win.calls.get("audit.sweep", 0),
        "audit.sweep.us": win.mean_us("audit.sweep"),
        "overload.admit.us": win.mean_us("overload.admit"),
        "metrics.scrape.us": scrape_us,
        "metrics.burn_walk.us": whole.mean_us("metrics.burn_walk"),
        "artifacts.load_s": whole.total.get("artifacts.load", 0.0),
        "artifacts.verify_s": whole.total.get("artifacts.verify", 0.0),
        "loadgen.cpu_share": (
            traced["loadgen_cpu_share"]
            if traced["loadgen_cpu_share"] is not None
            else ratio(cpu_s - busy_total, traced["wall_s"])
        ),
        "loadgen.max_lag_ms": traced["loadgen_max_lag_ms"],
        "trace.overhead.publish_qps": (
            traced_values["publish_qps"] - base_values["publish_qps"]
        ),
        "trace.overhead.cpu_us_per_publish": (
            traced_values["cpu_us_per_publish"]
            - base_values["cpu_us_per_publish"]
        ),
        "cpu.unattributed_us_per_publish": 1e6 * (cpu_s - busy_total)
        / publishes,
    }

    # Latency at the median: the transport overhead at the median, plus
    # the blocking components averaged over the publishes whose
    # server-side latency lies in the 45-55th percentile band; the
    # residual is what they leave of the client p50.
    components = []
    if server_side is not None and len(server_side):
        lo, hi = np.percentile(server_side, [45, 55])
        band = (server_side >= lo) & (server_side <= hi)

        def band_mean(key):
            return float(per[key][band].mean())

        components = [
            ("server.http_overhead (at p50)",
             metrics["server.http_overhead_us"] / 1e6),
            ("server.handle_request self", band_mean("handle_self")),
            ("server.publish self", band_mean("publish_self")),
            ("overload.admit+release",
             band_mean("admit") + band_mean("release")),
            ("durable_ledger.charge", band_mean("charge")),
            ("durable_ledger.record_result", band_mean("record_result")),
            ("batching.wait", band_mean("wait")),
            ("batching.flush (whole batch)", band_mean("flush")),
            ("batching.resume", band_mean("resume")),
        ]
    accounted = sum(seconds for _, seconds in components)
    residual = client_p50 - accounted
    metrics["latency.p50_residual_share"] = ratio(abs(residual), client_p50)

    busy_rows = sorted(
        ((name, SPAN_LAYER[name], seconds) for name, seconds in busy.items()),
        key=lambda row: -row[2],
    )
    tables = {
        "client_p50_s": client_p50,
        "components": components,
        "residual_s": residual,
        "busy_rows": busy_rows,
        "calls": win.calls,
        "publishes": win.publishes,
        "cpu_s": cpu_s,
        "busy_total": busy_total,
        "traced": traced_values,
        "base": base_values,
    }
    return metrics, tables


def print_tables(workload, metrics, tables) -> None:
    publishes = max(tables["publishes"], 1)
    p50 = tables["client_p50_s"]
    print(f"\n== {workload}: busy time per publish (traced window, "
          f"{tables['publishes']} publishes) ==")
    print(f"{'span':<32}{'layer':<16}{'calls':>9}{'us/publish':>12}"
          f"{'share':>8}")
    for name, layer, seconds in tables["busy_rows"]:
        print(f"{name:<32}{layer:<16}{tables['calls'].get(name, 0):>9}"
              f"{1e6 * seconds / publishes:>12.2f}"
              f"{seconds / max(tables['busy_total'], 1e-12):>8.1%}")
    cpu_us = 1e6 * tables["cpu_s"] / publishes
    print(f"{'(serving CPU, measured)':<57}{cpu_us:>12.2f}")
    print(f"{'(CPU outside every traced layer)':<57}"
          f"{metrics['cpu.unattributed_us_per_publish']:>12.2f}")
    print(f"\n== {workload}: publish latency at the median ==")
    print(f"{'component':<36}{'us':>10}{'share of p50':>14}")
    for name, seconds in tables["components"]:
        print(f"{name:<36}{1e6 * seconds:>10.1f}"
              f"{seconds / p50 if p50 else 0.0:>14.1%}")
    print(f"{'residual':<36}{1e6 * tables['residual_s']:>10.1f}"
          f"{tables['residual_s'] / p50 if p50 else 0.0:>14.1%}")
    print(f"{'client publish p50':<36}{1e6 * p50:>10.1f}")
    base, traced = tables["base"], tables["traced"]
    print(f"\ntracing overhead: publish_qps {base['publish_qps']:.1f} -> "
          f"{traced['publish_qps']:.1f}, cpu_us_per_publish "
          f"{base['cpu_us_per_publish']:.1f} -> "
          f"{traced['cpu_us_per_publish']:.1f}")
    for line in shape_checks(workload, metrics, tables):
        print(line)
    print(f"\npredicted to move end-to-end metrics on {workload}:")
    for name, targets in PREDICTIONS.items():
        moves = [e2e for e2e, target in targets if target == workload]
        if moves:
            print(f"  {name:<42}{float(metrics[name]):>14.2f} -> "
                  f"{', '.join(moves)}")


def shape_checks(workload, metrics, tables) -> list[str]:
    """The layer shapes the ROADMAP claims, reported as measured."""
    lines = []
    if workload == "http-scrape-wal" and tables["components"]:
        top = max(tables["components"], key=lambda c: c[1])[0]
        holds = top.startswith("batching.wait")
        lines.append(f"shape: batching.wait is the largest share of "
                     f"publish p50: {'HOLDS' if holds else 'DOES NOT HOLD'} "
                     f"(largest: {top})")
    if workload == "inproc-c1024-wal" and tables["busy_rows"]:
        cpu_rows = [r for r in tables["busy_rows"]
                    if r[0] != "durable_ledger.fs_fsync"]
        top = cpu_rows[0][0]
        holds = top == "durable_ledger.charge"
        lines.append(f"shape: durable_ledger.charge is the largest CPU "
                     f"layer: {'HOLDS' if holds else 'DOES NOT HOLD'} "
                     f"(largest: {top})")
    if workload == "http-scrape-wal":
        p50_us = 1e6 * tables["client_p50_s"]
        factor = metrics["metrics.scrape.us"] / p50_us if p50_us else 0.0
        lines.append(f"shape: metrics.scrape.us >= 10x publish p50: "
                     f"{'HOLDS' if factor >= 10 else 'DOES NOT HOLD'} "
                     f"({factor:.0f}x)")
    return lines


# -- entry point ---------------------------------------------------------------

def run_workload(args, work: str):
    shape = SHAPES[args.workload]
    store = build_store(shape, work)
    phase = http_phase if shape.transport == "http" else inproc_phase
    if not args.trace:
        result = phase(args, shape, work, store, SETUPS, False, "untraced")
        values, notes = end_to_end(result)
        units = dict(END_TO_END)
        for name, _ in END_TO_END:
            print(f"{name:<22}{values[name]:>14.4f} {units[name]:<5} "
                  f"{notes[name]}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        return result["attempted"], metrics
    base = phase(args, shape, work, store, 1, False, "untraced")
    traced = phase(args, shape, work, store, 1, True, "traced")
    values, tables = layer_metrics(base, traced)
    print_tables(args.workload, values, tables)
    print()
    for name, unit in PER_LAYER:
        print(f"{name:<42}{float(values[name]):>14.4f} {unit}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in PER_LAYER}
    return traced["attempted"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    header = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }
    print("header " + json.dumps(header), flush=True)
    work_root = os.path.join(ROOT, ".perfbench-work")
    work = os.path.join(work_root,
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        attempted, metrics = run_workload(args, work)
    except RunFailed as err:
        print(f"FAILED: {err}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(err.attempted, 1),
                          "failed": max(err.failed, 1), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_others = os.listdir(work_root) if os.path.isdir(work_root) else []
        if not with_others:
            shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": max(attempted, 1),
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
