"""Command-line interface.

Subcommands::

    repro reproduce figure1            # Figure 1 pmf series + ASCII plot
    repro reproduce table1             # Table 1: optimal = G x interaction
    repro reproduce table2 [-n N] [--alpha A]
    repro reproduce appendix-b         # the non-derivable mechanism
    repro optimal -n N --alpha A [--loss absolute|squared|zero-one]
                  [--space x|factor]
    repro release -n N --alphas A1 A2 ... --true-result R [--seed S]
    repro audit -n N --alpha A [--samples S]
    repro sweep universality|bayesian -n N1 N2 ... --alphas A1 A2 ...
                  [--losses L ...] [--float] [--workers W]
                  [--cache-dir DIR | --no-cache] [--space x|factor]
    repro compile -n N1 N2 ... --alphas A1 A2 ... [--losses L ...]
                  [--side-grid lower upper] [--store DIR] [--cache-dir DIR]
    repro cache verify [--store DIR]
    repro cache gc [--store DIR] [--max-entries K] [--max-age-days D]
                  [--solve-cache DIR]
    repro serve [--host H] [--port P] [--store DIR] [--floor F]
                  [--batch-window S] [--batch-max K] [--audit-rate R]
                  [--audit-every B] [--seed S] [--ledger-dir DIR]
                  [--ledger-fsync always|group|off] [--drain-deadline S]
                  [--trace-rate R] [--trace-dir DIR] [--trace-ring K]
                  [--workers N] [--queue-depth K] [--shed-deadline S]
                  [--degraded 503|geometric]
                  [--wal-failure-policy reject-new-charges|memory-mode-with-alarm]
    repro ledger show|verify|compact [--ledger-dir DIR]
    repro obs top [--server URL | --ledger-dir DIR] [--limit K]
    repro obs tail [--server URL | --trace-dir DIR] [--limit K]
                  [--name SPAN] [--trace ID]
    repro obs export --server URL [--format prometheus|json] [--out F]

Fractions are accepted anywhere a privacy level is (e.g. ``--alpha 1/4``).
The sweep command exposes the process-pool (``--workers``) and
persistent solve-cache (``--cache-dir``; disable with ``--no-cache``)
machinery, so heavy theorem-check grids are reachable — and warm re-runs
near-free — without writing Python.

The artifact lifecycle lives under ``compile`` / ``cache``: ``compile``
pre-builds deployable :class:`~repro.release.artifacts.MechanismArtifact`
entries (exact kernel, alias sampling tables, optimality certificate)
over an ``(n, alpha, loss)`` grid; ``cache verify`` replays every stored
certificate and re-derives every sampling table's pmf with **zero** LP
solves; ``cache gc`` evicts by entry count or age. The store directory
defaults to the ``REPRO_ARTIFACT_DIR`` environment variable.

``serve`` completes the lifecycle: it loads **every** compiled artifact
in the store (verifying each at load), then runs the asyncio
micro-batched statistic service of :mod:`repro.serving` — per-user
privacy accounting (budget floor → HTTP 429), fused heterogeneous
sampling, and the online audit hook — until interrupted. Pre-warm
bespoke side-information deployments with ``compile --side-grid`` so
the server never compiles on the request path.

With ``--ledger-dir`` (or ``REPRO_LEDGER_DIR``) budgets live in a
crash-safe write-ahead-logged :class:`~repro.release.durable_ledger.DurableLedger`
shared by N worker processes; without it they reset with the process.
``SIGTERM``/``SIGINT`` drain gracefully. ``repro ledger`` inspects
(``show``), integrity-checks (``verify``), or compacts (``compact``)
a ledger directory offline; ``show`` includes per-user burn columns
(spent fraction of the epsilon budget, exact remaining charges).

``obs`` is the observability toolbox over :mod:`repro.obs`: ``top``
ranks users by budget burn (live ``/obs/burn`` or a WAL directory at
rest), ``tail`` prints recent trace spans (live ring buffer or a
``--trace-dir`` JSONL log), ``export`` dumps a live server's metrics
as Prometheus text or the legacy JSON snapshot. ``serve`` grows
``--trace-rate``/``--trace-dir``/``--trace-ring`` to configure request
tracing.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

from .analysis.report import render_figure1, render_table1, render_table2
from .analysis.tables import reproduce_table1, reproduce_table2
from .analysis.fractions_fmt import format_matrix, format_value
from .core.counterexample import APPENDIX_B_ALPHA, appendix_b_mechanism, verify_appendix_b
from .core.geometric import GeometricMechanism
from .core.multilevel import MultiLevelRelease
from .core.optimal import optimal_mechanism
from .exceptions import ReproError
from .losses import AbsoluteLoss, SquaredLoss, ZeroOneLoss
from .release.audit import empirical_alpha
from .release.durable_ledger import FSYNC_MODES
from .serving.config import DEGRADED_MODES, WAL_POLICY_SPELLINGS, ServerConfig

__all__ = ["main", "build_parser"]

_LOSSES = {
    "absolute": AbsoluteLoss,
    "squared": SquaredLoss,
    "zero-one": ZeroOneLoss,
}


def _parse_alpha(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(
            f"cannot parse privacy level {text!r}: {err}"
        ) from None


def _parse_limit(text: str) -> int:
    """A row count: a negative one would slice rows off silently."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"limit must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Universally Optimal Privacy Mechanisms "
            "for Minimax Agents' (PODS 2010)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate a table/figure from the paper"
    )
    reproduce.add_argument(
        "artifact",
        choices=("figure1", "table1", "table2", "appendix-b"),
    )
    reproduce.add_argument("-n", type=int, default=3)
    reproduce.add_argument("--alpha", type=_parse_alpha, default=Fraction(1, 4))

    optimal = sub.add_parser(
        "optimal", help="solve the bespoke optimal-mechanism LP"
    )
    optimal.add_argument("-n", type=int, required=True)
    optimal.add_argument("--alpha", type=_parse_alpha, required=True)
    optimal.add_argument(
        "--loss", choices=sorted(_LOSSES), default="absolute"
    )
    optimal.add_argument(
        "--side", type=int, nargs="*", default=None,
        help="admissible results (default: all)",
    )
    optimal.add_argument(
        "--space", choices=("x", "factor"), default="x",
        help="LP parameterization: the paper's x-space program, or the "
        "Theorem 2 factor-space reparameterization (certified against "
        "the full program)",
    )

    release = sub.add_parser(
        "release", help="run Algorithm 1 at multiple privacy levels"
    )
    release.add_argument("-n", type=int, required=True)
    release.add_argument(
        "--alphas", type=_parse_alpha, nargs="+", required=True
    )
    release.add_argument("--true-result", type=int, required=True)
    release.add_argument("--seed", type=int, default=None)

    audit = sub.add_parser(
        "audit", help="empirically audit a geometric mechanism's privacy"
    )
    audit.add_argument("-n", type=int, required=True)
    audit.add_argument("--alpha", type=_parse_alpha, required=True)
    audit.add_argument("--samples", type=int, default=400_000)
    audit.add_argument("--seed", type=int, default=None)

    tradeoff = sub.add_parser(
        "tradeoff", help="print the privacy-utility frontier for a consumer"
    )
    tradeoff.add_argument("-n", type=int, required=True)
    tradeoff.add_argument(
        "--alphas", type=_parse_alpha, nargs="+", required=True
    )
    tradeoff.add_argument(
        "--loss", choices=sorted(_LOSSES), default="absolute"
    )
    tradeoff.add_argument("--side", type=int, nargs="*", default=None)

    sweep = sub.add_parser(
        "sweep",
        help="run a Theorem 1 universality sweep over a parameter grid",
    )
    sweep.add_argument(
        "kind",
        choices=("universality", "bayesian"),
        help="minimax consumers (Theorem 1) or the GRS09 Bayesian "
        "baseline (uniform prior)",
    )
    sweep.add_argument(
        "-n", type=int, nargs="+", required=True, dest="sizes",
        help="query-result ranges to sweep",
    )
    sweep.add_argument(
        "--alphas", type=_parse_alpha, nargs="+", required=True
    )
    sweep.add_argument(
        "--losses", choices=sorted(_LOSSES), nargs="+",
        default=["absolute"],
    )
    sweep.add_argument(
        "--float", dest="exact", action="store_false",
        help="float regime (default: exact Fractions)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="solve distinct cells on a process pool of this size",
    )
    cache_group = sweep.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache-dir", default=None,
        help="persistent cross-run LP solve cache directory "
        "(warm re-runs perform zero LP solves)",
    )
    cache_group.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent solve cache (including the "
        "REPRO_CACHE_DIR default)",
    )
    sweep.add_argument(
        "--space", choices=("x", "factor"), default="x",
        help="LP parameterization for the bespoke solves "
        "(universality sweeps only)",
    )

    compile_parser = sub.add_parser(
        "compile",
        help="pre-build deployable mechanism artifacts over a grid",
    )
    compile_parser.add_argument(
        "-n", type=int, nargs="+", required=True, dest="sizes"
    )
    compile_parser.add_argument(
        "--alphas", type=_parse_alpha, nargs="+", required=True
    )
    compile_parser.add_argument(
        "--losses", choices=sorted(_LOSSES), nargs="*",
        default=["absolute"],
        help="bespoke optimal artifacts compiled per (n, alpha) cell in "
        "addition to the geometric artifact; pass no names for "
        "geometric-only",
    )
    compile_parser.add_argument(
        "--side-grid", choices=("lower", "upper"), nargs="+", default=None,
        help="also pre-warm bespoke side-information artifacts per "
        "(n, alpha, loss) cell: 'lower' compiles every lower-bound set "
        "{b..n} (Example 1's sales-receipts consumer), 'upper' every "
        "upper-bound set {0..b} — so a server never compiles on the "
        "request path",
    )
    compile_parser.add_argument(
        "--store", default=None,
        help="artifact store directory (default: REPRO_ARTIFACT_DIR)",
    )
    compile_parser.add_argument(
        "--cache-dir", default=None,
        help="persistent LP solve cache reused for the optimal solves",
    )

    cache = sub.add_parser(
        "cache", help="compiled-artifact store lifecycle"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="replay certificates + pmf/table agreement on every "
        "artifact (zero LP solves)",
    )
    cache_verify.add_argument("--store", default=None)
    cache_gc = cache_sub.add_parser(
        "gc", help="evict artifacts by count and/or age"
    )
    cache_gc.add_argument("--store", default=None)
    cache_gc.add_argument("--max-entries", type=int, default=None)
    cache_gc.add_argument("--max-age-days", type=float, default=None)
    cache_gc.add_argument(
        "--solve-cache", default=None,
        help="also GC this LP solve-cache directory with the same limits",
    )

    serve = sub.add_parser(
        "serve",
        help="serve every compiled artifact as an async micro-batched "
        "statistic service (HTTP/1.1, per-user budgets, online audit)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8790)
    serve.add_argument(
        "--store", default=None,
        help="artifact store directory (default: REPRO_ARTIFACT_DIR)",
    )
    defaults = ServerConfig()

    def setting(name, **kwargs):
        # Every other serve flag is a ServerConfig field, with its default.
        serve.add_argument(
            "--" + name.replace("_", "-"), default=getattr(defaults, name),
            **kwargs,
        )

    setting(
        "floor", type=_parse_alpha,
        help="per-user privacy floor (joint alpha guarantee the server "
        "refuses to cross; 0 disables enforcement)",
    )
    setting(
        "batch_window", type=float,
        help="micro-batch deadline in seconds (0 disables batching)",
    )
    setting(
        "batch_max", type=int,
        help="micro-batch size bound (flush immediately at this size)",
    )
    setting(
        "audit_rate", type=float,
        help="fraction of responses replayed by the online auditor "
        "(0 disables the hook)",
    )
    setting(
        "audit_every", type=int,
        help="run an audit sweep every this-many executed batches",
    )
    setting(
        "seed", type=int,
        help="seed the sampling RNG (reproducible serving for tests)",
    )
    setting(
        "ledger_dir",
        help="durable privacy-ledger directory (default: the "
        "REPRO_LEDGER_DIR environment variable; unset = in-memory "
        "budgets that reset with the process)",
    )
    setting(
        "ledger_fsync", choices=list(FSYNC_MODES),
        help="journal fsync policy for --ledger-dir: 'always' fsyncs "
        "every charge, 'group' amortizes one fsync per micro-batch "
        "(group commit, the default), 'off' leaves durability to the "
        "OS page cache (benchmarking only)",
    )
    setting(
        "drain_deadline", type=float,
        help="seconds a graceful shutdown (SIGTERM/SIGINT) waits for "
        "in-flight connections before cancelling them",
    )
    setting(
        "trace_rate", type=float,
        help="fraction of publishes to trace end to end (0 disables "
        "tracing; 1.0 traces every request)",
    )
    setting(
        "trace_dir",
        help="append sampled trace spans to DIR/trace.jsonl, shared by "
        "every fleet worker (unset: in-memory ring buffer only, via "
        "GET /trace/recent)",
    )
    setting(
        "trace_ring", type=int,
        help="spans kept in the in-memory ring served by /trace/recent",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="serving processes sharing one SO_REUSEPORT listener, the "
        "artifact store, and the durable ledger; >1 starts the "
        "supervised fleet (crash restarts with capped backoff, "
        "lame-duck drain on SIGTERM, rolling reload on SIGHUP)",
    )
    setting(
        "queue_depth", type=int,
        help="per-worker admission bound: publishes in flight beyond "
        "this are shed with 429 + Retry-After *before* any budget "
        "charge (0 disables admission control)",
    )
    setting(
        "shed_deadline", type=float,
        help="shed a publish with 503 when its estimated queue wait "
        "exceeds this many seconds (0 disables deadline shedding)",
    )
    setting(
        "degraded", choices=list(DEGRADED_MODES),
        help="what a quarantined bespoke artifact serves: '503' "
        "(default) or 'geometric' — fall back to the certificate-"
        "verified same-(n, alpha) geometric mechanism, with responses "
        "marked degraded (universally optimal, so privacy is exact "
        "and every minimax consumer can still post-process optimally)",
    )
    setting(
        "wal_failure_policy", choices=list(WAL_POLICY_SPELLINGS),
        help="circuit-breaker policy when the durable ledger's fsync "
        "fails (ENOSPC/EIO): 'reject-new-charges' (or 'reject', the "
        "default) refuses publishes with 503 + Retry-After until a "
        "recovery probe succeeds; 'memory-mode-with-alarm' (or "
        "'memory') keeps charging the same book in memory, marks "
        "responses durability=volatile, and backfills the WAL on "
        "recovery — never a silent downgrade",
    )

    ledger = sub.add_parser(
        "ledger",
        help="inspect, verify, or compact a durable privacy-ledger "
        "directory",
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    for name, description in (
        ("show", "per-user budgets and journal statistics"),
        ("verify", "read-only integrity check (checksums, sequence "
         "numbers, cumulative products)"),
        ("compact", "snapshot the state and truncate the journal"),
    ):
        cmd = ledger_sub.add_parser(name, help=description)
        cmd.add_argument(
            "--ledger-dir", default=None,
            help="ledger directory (default: REPRO_LEDGER_DIR)",
        )

    obs = sub.add_parser(
        "obs",
        help="observability toolbox: rank budget burners, tail trace "
        "spans, export metrics",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_top = obs_sub.add_parser(
        "top", help="rank users by privacy-budget burn"
    )
    obs_top.add_argument(
        "--server", default=None,
        help="live server base URL (e.g. http://127.0.0.1:8790)",
    )
    obs_top.add_argument(
        "--ledger-dir", default=None,
        help="rank from a ledger directory at rest "
        "(default: REPRO_LEDGER_DIR when --server is not given)",
    )
    obs_top.add_argument("--limit", type=_parse_limit, default=20)
    obs_tail = obs_sub.add_parser(
        "tail", help="print recent trace spans, newest first"
    )
    obs_tail.add_argument(
        "--server", default=None,
        help="live server base URL (reads the /trace/recent ring)",
    )
    obs_tail.add_argument(
        "--trace-dir", default=None,
        help="read a trace.jsonl log written by serve --trace-dir",
    )
    obs_tail.add_argument("--limit", type=_parse_limit, default=20)
    obs_tail.add_argument(
        "--name", default=None, help="only spans with this name"
    )
    obs_tail.add_argument(
        "--trace", default=None, help="only spans of this trace id"
    )
    obs_export = obs_sub.add_parser(
        "export", help="dump a live server's metrics"
    )
    obs_export.add_argument("--server", required=True)
    obs_export.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )
    obs_export.add_argument(
        "--out", default=None, help="write to this file instead of stdout"
    )

    return parser


def _cmd_reproduce(args) -> str:
    if args.artifact == "figure1":
        return render_figure1(Fraction(1, 5))
    if args.artifact == "table1":
        return render_table1(reproduce_table1())
    if args.artifact == "table2":
        return render_table2(reproduce_table2(args.n, args.alpha))
    outcome = verify_appendix_b()
    mechanism = appendix_b_mechanism()
    return "\n".join(
        [
            f"Appendix B mechanism (alpha = {APPENDIX_B_ALPHA}):",
            format_matrix(mechanism),
            f"is 1/2-differentially private: {outcome['is_private']}",
            f"derivable from the geometric mechanism: {outcome['derivable']}",
            "three-entry value at column 1, rows 0..2: "
            + format_value(outcome["witness_value"])
            + " (paper: -0.75/9 = -1/12)",
        ]
    )


def _cmd_optimal(args) -> str:
    loss = _LOSSES[args.loss]()
    result = optimal_mechanism(
        args.n, args.alpha, loss, args.side, exact=True, space=args.space
    )
    return "\n".join(
        [
            f"Optimal alpha={args.alpha} mechanism for loss={args.loss}, "
            f"S={result.side_information}:",
            format_matrix(result.mechanism),
            "minimax loss: "
            + format_value(result.loss)
            + f" = {float(result.loss):.6f}",
        ]
    )


def _cmd_release(args) -> str:
    release = MultiLevelRelease(args.n, args.alphas)
    values = release.release(args.true_result, rng=args.seed)
    lines = [
        f"Algorithm 1 release for true result {args.true_result} "
        f"(n={args.n}):"
    ]
    for alpha, value in zip(release.alphas, values):
        lines.append(f"  level alpha={alpha}: published {value}")
    checks = release.verify_all_coalitions()
    lines.append(
        "collusion resistance (all coalitions): "
        + ("OK" if all(c.holds for c in checks) else "VIOLATED")
    )
    return "\n".join(lines)


def _cmd_audit(args) -> str:
    mechanism = GeometricMechanism(args.n, args.alpha)
    report = empirical_alpha(mechanism, args.samples, rng=args.seed)
    return "\n".join(
        [
            f"Audit of G(n={args.n}, alpha={args.alpha}):",
            f"  exact tightest alpha:     {format_value(report.exact_alpha)}",
            f"  empirical alpha estimate: {report.empirical_alpha:.4f}",
            f"  empirical epsilon:        {report.empirical_epsilon:.4f}",
            f"  samples per input:        {report.samples_per_input}",
            f"  consistent with matrix:   {report.consistent}",
        ]
    )


def _cmd_tradeoff(args) -> str:
    from .analysis.tradeoff import tradeoff_curve

    loss = _LOSSES[args.loss]()
    points = tradeoff_curve(args.n, args.alphas, loss, args.side)
    lines = [
        f"privacy-utility frontier (n={args.n}, loss={args.loss}):",
        f"  {'alpha':>8} {'epsilon':>9} {'optimal loss':>14}",
    ]
    for point in points:
        lines.append(
            f"  {str(point.alpha):>8} {point.epsilon:>9.4f} "
            f"{format_value(point.optimal_loss):>14}"
        )
    return "\n".join(lines)


def _cmd_sweep(args) -> str:
    from .analysis.sweeps import bayesian_universality_sweep, universality_sweep
    from .solvers.cache import SolveCache

    losses = [_LOSSES[name]() for name in args.losses]
    solve_cache = None
    if args.no_cache:
        solve_cache = False
    elif args.cache_dir is not None:
        solve_cache = SolveCache(args.cache_dir)
    if args.kind == "universality":
        cases = [
            (n, alpha, loss, None)
            for n in args.sizes
            for alpha in args.alphas
            for loss in losses
        ]
        records = universality_sweep(
            cases,
            exact=args.exact,
            workers=args.workers,
            solve_cache=solve_cache,
            space=args.space,
        )
    else:
        cases = [
            (n, alpha, loss, [Fraction(1, n + 1)] * (n + 1))
            for n in args.sizes
            for alpha in args.alphas
            for loss in losses
        ]
        records = bayesian_universality_sweep(
            cases,
            exact=args.exact,
            workers=args.workers,
            solve_cache=solve_cache,
        )
    lines = [
        f"{args.kind} sweep over {len(records)} cells "
        f"({'exact' if args.exact else 'float'} regime):",
        f"  {'n':>3} {'alpha':>8} {'loss':<24} {'bespoke':>12} "
        f"{'interaction':>12} holds",
    ]
    for record in records:
        lines.append(
            f"  {record.n:>3} {str(record.alpha):>8} "
            f"{record.loss_name:<24} "
            f"{format_value(record.bespoke_loss):>12} "
            f"{format_value(record.interaction_loss):>12} "
            f"{'yes' if record.holds else 'NO'}"
        )
    holds = all(record.holds for record in records)
    lines.append(
        f"universality holds on all cells: {'yes' if holds else 'NO'}"
    )
    if isinstance(solve_cache, SolveCache):
        # With --workers the solving (and its hits/misses) happens in
        # worker processes sharing the directory, so the per-process
        # counters only describe this process; the on-disk entry count
        # is the cross-process truth.
        stats = solve_cache.stats
        entries = sum(1 for _ in solve_cache.path.rglob("*.json"))
        lines.append(
            f"solve cache {solve_cache.path}: {entries} entries on disk; "
            f"this process: {stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['stores']} stores"
        )
    return "\n".join(lines)


def _resolve_cli_store(path):
    from .release.artifacts import ArtifactStore, default_artifact_store

    if path is not None:
        return ArtifactStore(path)
    store = default_artifact_store()
    if store is None:
        raise ReproError(
            "no artifact store: pass --store DIR or set REPRO_ARTIFACT_DIR"
        )
    return store


def _cmd_compile(args) -> str:
    from .release.artifacts import ArtifactSpec
    from .solvers.cache import SolveCache

    store = _resolve_cli_store(args.store)
    solve_cache = (
        SolveCache(args.cache_dir) if args.cache_dir is not None else None
    )
    side_grid = getattr(args, "side_grid", None) or ()
    specs = []
    for n in args.sizes:
        sides = []
        if "lower" in side_grid:
            # "result >= b" side information, one set per threshold.
            sides.extend(tuple(range(b, n + 1)) for b in range(1, n + 1))
        if "upper" in side_grid:
            # "result <= b" side information.
            sides.extend(tuple(range(0, b + 1)) for b in range(n))
        for alpha in args.alphas:
            specs.append(ArtifactSpec("geometric", n, alpha))
            for loss in args.losses:
                specs.append(ArtifactSpec("optimal", n, alpha, loss=loss))
                for side in sides:
                    specs.append(
                        ArtifactSpec("optimal", n, alpha, loss=loss, side=side)
                    )
    lines = [f"compiling {len(specs)} artifacts into {store.path}:"]
    before = store.stats["compiles"]
    for spec in specs:
        artifact = store.get_or_compile(spec, solve_cache=solve_cache)
        fresh = store.stats["compiles"] > before
        before = store.stats["compiles"]
        label = spec.loss if spec.kind == "optimal" else "-"
        loss_value = (
            format_value(artifact.loss_value)
            if artifact.loss_value is not None
            else "-"
        )
        side = (
            "all"
            if spec.side is None
            else "{%d..%d}" % (min(spec.side), max(spec.side))
        )
        lines.append(
            f"  {'compiled' if fresh else 'cached  '} {spec.kind:<9} "
            f"n={spec.n} alpha={spec.alpha} loss={label} side={side} "
            f"key={spec.key()[:12]} loss_value={loss_value}"
        )
    stats = store.stats
    lines.append(
        f"store: {stats['compiles']} compiled this run, "
        f"{stats['hits'] + stats['misses']} lookups "
        f"({stats['hits']} hits)"
    )
    if solve_cache is not None:
        lines.append(
            f"solve cache {solve_cache.path}: "
            f"{solve_cache.stats['hits']} hits, "
            f"{solve_cache.stats['misses']} misses"
        )
    return "\n".join(lines)


def _cmd_cache(args) -> str:
    store = _resolve_cli_store(args.store)
    if args.cache_command == "verify":
        reports = store.verify_all()
        lines = [
            f"verifying {len(reports)} artifacts in {store.path} "
            "(certificate replay + exact pmf/table agreement; 0 LP solves):"
        ]
        failed = 0
        for report in reports:
            if report.ok:
                lines.append(
                    f"  OK   {report.kind:<9} {report.key[:12]} "
                    f"checks={','.join(report.checks)}"
                )
            else:
                failed += 1
                lines.append(
                    f"  FAIL {report.kind:<9} {report.key[:12]} "
                    f"failures={','.join(report.failures)}: {report.detail}"
                )
        if failed:
            raise ReproError(
                f"{failed} of {len(reports)} artifacts failed "
                "verification:\n" + "\n".join(lines)
            )
        lines.append(f"all {len(reports)} artifacts verified")
        return "\n".join(lines)
    removed = store.gc(
        max_entries=args.max_entries, max_age_days=args.max_age_days
    )
    lines = [
        f"artifact store {store.path}: evicted {removed} entries, "
        f"{len(store.keys())} remain"
    ]
    if args.solve_cache is not None:
        from .solvers.cache import SolveCache

        solve_cache = SolveCache(args.solve_cache)
        dropped = solve_cache.gc(
            max_entries=args.max_entries, max_age_days=args.max_age_days
        )
        lines.append(
            f"solve cache {solve_cache.path}: evicted {dropped} entries"
        )
    return "\n".join(lines)


def _resolve_ledger_dir(value):
    import os

    return value if value is not None else os.environ.get("REPRO_LEDGER_DIR")


def _serve_config(args) -> ServerConfig:
    """The one :class:`ServerConfig` a ``repro serve`` line describes."""
    settings = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(ServerConfig)
        if hasattr(args, field.name)
    }
    settings["ledger_dir"] = _resolve_ledger_dir(args.ledger_dir)
    return ServerConfig.of(settings)


def _cmd_serve_fleet(args, store, config) -> str:
    """The ``--workers N`` path: a supervised SO_REUSEPORT fleet."""
    from .serving.supervisor import ServingSupervisor

    supervisor = ServingSupervisor(
        {"store": str(store.path), **config.to_dict()},
        workers=args.workers,
        host=args.host,
        port=args.port,
        drain_deadline=config.drain_deadline,
    )
    supervisor.start()
    budgets = (
        f"durable ({config.ledger_dir}, fsync={config.ledger_fsync}, "
        "shared WAL)" if config.ledger_dir
        else "in-memory PER WORKER (floors are per-process without "
        "--ledger-dir!)"
    )
    print(
        f"fleet of {args.workers} workers on "
        f"http://{args.host}:{supervisor.port} "
        f"(floor={config.floor}, queue_depth={config.queue_depth}, "
        f"shed_deadline={config.shed_deadline}s, "
        f"degraded={config.degraded}, "
        f"wal_failure_policy={config.wal_failure_policy}, "
        f"budgets {budgets}; SIGTERM drains, SIGHUP rolls)",
        flush=True,
    )
    supervisor.run(install_signal_handlers=True)
    status = supervisor.status()
    stats = status["stats"]
    published = sum(slot["published"] for slot in status["slots"])
    return (
        f"fleet drained: {published} statistics across the fleet, "
        f"{stats['spawns']} spawns, {stats['restarts']} restarts, "
        f"{stats['heartbeat_kills']} heartbeat kills"
    )


def _cmd_serve(args) -> str:
    import asyncio

    from .serving.server import MechanismServer

    config = _serve_config(args)
    store = _resolve_cli_store(args.store)
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1:
        return _cmd_serve_fleet(args, store, config)
    server = MechanismServer(store, config=config)
    loaded = server.load_store()
    if not loaded:
        raise ReproError(
            f"artifact store {store.path} is empty: run `repro compile` "
            "first (the server never solves on the request path)"
        )
    lines = [f"loaded {loaded} verified deployments from {store.path}:"]
    for deployment in server.deployments:
        spec = deployment.spec
        lines.append(
            f"  {spec.kind:<9} n={spec.n} alpha={spec.alpha} "
            f"key={spec.key()[:12]}"
        )
    for key, entry in server.quarantined.items():
        lines.append(
            f"  QUARANTINED {key[:12]}: {entry['reason']}"
        )
    print("\n".join(lines), flush=True)

    async def _run() -> None:
        await server.start(host=args.host, port=args.port)
        budgets = (
            f"durable ({config.ledger_dir}, fsync={config.ledger_fsync})"
            if config.ledger_dir
            else "in-memory (reset on restart; set --ledger-dir)"
        )
        print(
            f"serving on http://{args.host}:{server.port} "
            f"(floor={config.floor}, window={config.batch_window}s, "
            f"batch_max={config.batch_max}, "
            f"audit_rate={config.audit_rate}, budgets {budgets})",
            flush=True,
        )
        try:
            await server.serve_forever(install_signal_handlers=True)
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    stats = server.batcher.stats
    return (
        f"served {server.metrics['published']} statistics in "
        f"{stats['batches']} batches "
        f"(max batch {stats['max_batch']}, "
        f"{server.metrics['rejected_budget']} budget rejections, "
        f"{server.metrics['audit_flagged']} audit flags)"
    )


def _cmd_ledger(args) -> str:
    from pathlib import Path

    from .release.durable_ledger import (
        DurableLedger,
        replay_ledger_dir,
        verify_ledger_dir,
    )

    ledger_dir = _resolve_ledger_dir(args.ledger_dir)
    if ledger_dir is None:
        raise ReproError(
            "no ledger directory: pass --ledger-dir or set REPRO_LEDGER_DIR"
        )
    if args.ledger_command == "verify":
        report = verify_ledger_dir(ledger_dir)
        lines = [
            f"ledger {report['path']}: "
            f"{'OK' if report['ok'] else 'DAMAGED'}",
            f"  records={report['records']} seq={report['seq']} "
            f"snapshot_seq={report['snapshot_seq']} "
            f"users={report['users']}",
        ]
        if report.get("floor") is not None:
            lines.append(f"  floor={report['floor']}")
        if report["torn_tail_bytes"]:
            lines.append(
                f"  torn tail: {report['torn_tail_bytes']} byte(s) "
                "(recovery will truncate; not a failure)"
            )
        for failure in report["failures"]:
            lines.append(f"  FAIL: {failure}")
        if not report["ok"]:
            raise ReproError("\n".join(lines))
        return "\n".join(lines)
    if args.ledger_command == "compact":
        replay_ledger_dir(ledger_dir)  # refuses a path with no ledger
        ledger = DurableLedger(ledger_dir)
        try:
            result = ledger.compact()
        finally:
            ledger.close()
        return (
            f"compacted {ledger.path}: journal "
            f"{result['journal_bytes_before']} -> "
            f"{result['journal_bytes_after']} bytes "
            f"(snapshot seq {result['snapshot_seq']}, "
            f"{result['users']} users)"
        )
    found: dict = {}
    book = replay_ledger_dir(ledger_dir, found)
    lines = [
        f"ledger {Path(ledger_dir).expanduser()}: floor={book.floor} "
        f"seq={found['seq']} journal_bytes={found['journal_bytes']} "
        f"replay_entries={book.stats()['replay_entries']}",
    ]
    from .obs.budget import burn_row

    budgets = sorted(book.budgets(), key=lambda budget: budget.user)
    for budget in budgets:
        row = burn_row(budget)
        left = (
            "inf"
            if row.remaining_charges is None
            else row.remaining_charges
        )
        lines.append(
            f"  {budget.user}: releases={budget.releases} "
            f"cumulative={budget.cumulative_alpha} "
            f"(epsilon={budget.cumulative_epsilon:.4f}) "
            f"remaining={budget.remaining_alpha} "
            f"spent={row.spent_fraction * 100:.1f}% "
            f"charges_left={left}"
        )
    if not budgets:
        lines.append("  (no releases recorded)")
    return "\n".join(lines)


def _cmd_obs(args) -> str:
    from .obs.cli import obs_export, obs_tail, obs_top

    if args.obs_command == "top":
        ledger_dir = args.ledger_dir
        if args.server is None:
            ledger_dir = _resolve_ledger_dir(ledger_dir)
        return obs_top(
            server=args.server, ledger_dir=ledger_dir, limit=args.limit
        )
    if args.obs_command == "tail":
        return obs_tail(
            server=args.server,
            trace_dir=args.trace_dir,
            limit=args.limit,
            name=args.name,
            trace=args.trace,
        )
    return obs_export(
        server=args.server, format=args.format, out=args.out
    )


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "reproduce": _cmd_reproduce,
        "optimal": _cmd_optimal,
        "release": _cmd_release,
        "audit": _cmd_audit,
        "tradeoff": _cmd_tradeoff,
        "sweep": _cmd_sweep,
        "compile": _cmd_compile,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "ledger": _cmd_ledger,
        "obs": _cmd_obs,
    }
    try:
        output = handlers[args.command](args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        print(output)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
