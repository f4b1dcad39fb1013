"""The mechanism-serving subsystem: ``repro serve``.

The paper's deployment story is inherently multi-tenant: ONE published
geometric release serves every minimax consumer optimally (Theorem 1),
and heterogeneous deployments (different ``n``, ``alpha``, bespoke
side-information mechanisms) coexist behind one statistic service. This
module is that serving layer, built exclusively from pieces the pipeline
has already *proved*:

* mechanisms come from compiled :class:`~repro.release.artifacts.MechanismArtifact`
  entries in an :class:`~repro.release.artifacts.ArtifactStore` — never
  from a solver: a spec that was not pre-compiled (``repro compile``,
  including ``--side-grid`` pre-warming) is a 404, so the request path
  is zero-solve by construction;
* each artifact is **verified on load** (certificate replay, exact
  pmf-law re-derivation, bit-exact alias-table reconstruction) before it
  may serve a single response;
* concurrent requests are micro-batched
  (:class:`~repro.serving.batching.MicroBatcher`) into fused
  :class:`~repro.sampling.alias.HeterogeneousAliasSampler` gathers —
  mixed ``n``/``alpha`` deployments in one numpy tick;
* every release is charged to the requesting user's budget in one
  :class:`~repro.release.durable_ledger.MemoryLedgerBook` *before*
  sampling; exceeding the per-user floor is an HTTP 429, and the
  charge-or-reject is atomic so racers can never overspend. With
  ``ledger_dir=`` the book is a crash-safe
  :class:`~repro.release.durable_ledger.DurableLedger`: the charge is
  journaled (and fsync'd — per charge, or once per micro-batch under
  group commit) *before* the response is released, so a crash can only
  over-protect, and budgets survive restarts instead of silently
  refilling (which would be a privacy violation, not an availability
  bug). Requests may carry an ``"idem"`` idempotency key: a retried
  publish is answered from the replay journal instead of
  double-charging;
* a sampled slice of responses feeds the
  :class:`~repro.serving.audit.OnlineAuditor`, which periodically
  replays the accumulated counts against the independently re-derived
  geometric law — the last line of defense against a kernel tampered
  *after* load-time verification.

When the WAL stops persisting, the circuit breaker
(:mod:`repro.serving.overload`) either refuses charges or, under the
memory policy, turns the same book volatile; its half-open probe asks
the book to recover, which also backfills the outage's charges.

Transport is stdlib-only: HTTP/1.1 (keep-alive) on
:func:`asyncio.start_server` for real sockets (``curl``-able), plus the
zero-copy in-process path (:meth:`MechanismServer.handle_request`) used
by tests, benchmarks, and co-located clients.

Request/response shape (``POST /publish``)::

    {"user": "gov", "n": 100, "alpha": "1/2", "true_result": 42,
     "idem": "optional-retry-key"}
      -> 200 {"value": 41, "alpha": "1/2", "n": 100, ...}
      -> 404 unknown/uncompiled deployment
      -> 429 {"error": "..."} when the user's budget floor is hit
      -> 503 quarantined deployment or unavailable durable ledger

Resilience: artifacts that fail load-time verification are
**quarantined** (503 on that deployment, the rest of the store serves);
``SIGTERM``/``SIGINT`` trigger a graceful drain (stop accepting, await
open connections up to ``drain_deadline``, flush the batcher, fsync and
close the ledger).

``GET /healthz``, ``GET /artifacts``, ``GET /metrics``, and
``GET /ledger/<user>`` expose liveness + ledger/WAL health, the
deployment list, counters + audit findings, and per-user accounting.

Telemetry (PR 9): the server carries a :class:`repro.obs.Telemetry` —
on by default; pass ``telemetry=False`` for the bare pre-telemetry
server — giving it labeled Prometheus metrics (``GET /metrics``
content-negotiates the text exposition; the JSON shape above remains
the default), sampled end-to-end request traces (``--trace-rate`` /
``--trace-dir``; ring served at ``GET /trace/recent``), and budget
burn-rate gauges with a ``GET /obs/burn`` drill-down. A traced publish
carries one trace ID across ``server.publish`` → ``ledger.charge`` →
``wal.append`` → ``wal.fsync`` → ``batch.flush`` → ``sampler.gather``,
the batch-scoped spans broadcast by the micro-batcher.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import sys
import time
from fractions import Fraction

import numpy as np

from ..exceptions import ReproError, ValidationError
from ..obs import (
    MetricsRegistry,
    Telemetry,
    burn_rows_from_book,
    default_registry,
    floor_proximity,
)
from ..release.artifacts import (
    ArtifactSpec,
    resolve_artifact_store,
    verify_artifact,
)
from ..release.durable_ledger import (
    NO_FAULTS,
    DurableLedger,
    LedgerUnavailableError,
    MemoryLedgerBook,
)
from ..sampling.alias import HeterogeneousAliasSampler
from ..sampling.rng import ensure_generator
from .audit import OnlineAuditor
from .batching import MicroBatcher
from .fallback import DEGRADED_MODES, resolve_fallbacks
from .overload import AdmissionController, WALCircuitBreaker

__all__ = ["MechanismServer"]

#: CLI spellings of the WAL failure policies (the flag names are the
#: self-describing long forms; the breaker uses the short ones).
_WAL_POLICY_ALIASES = {
    "reject-new-charges": "reject",
    "memory-mode-with-alarm": "memory",
    "reject": "reject",
    "memory": "memory",
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Idempotency keys above this length are rejected (they are journaled;
#: unbounded keys would be a disk-growth vector).
_MAX_IDEM = 128

#: Request bodies above this are rejected outright (a publish payload is
#: tiny; anything bigger is a client bug or abuse).
_MAX_BODY = 1 << 16

#: Sentinel distinguishing "cached as invalid" from "not cached".
_UNCACHED = object()

#: Deferred latency samples fold into the histograms at this many
#: pending pairs (and at every scrape) — bounds memory between scrapes
#: while keeping the per-request cost to a tuple append.
_LATENCY_FOLD_CAP = 65536


def _parse_query(query: str) -> dict:
    """Minimal query-string parsing (no repeats, no percent-decoding —
    the observability routes only take simple tokens)."""
    params: dict = {}
    if query:
        for part in query.split("&"):
            name, _, value = part.partition("=")
            if name:
                params[name] = value
    return params


#: ``GET /metrics`` serves the Prometheus text exposition instead of
#: JSON when the Accept header asks for one of these (or the query
#: string carries ``format=prometheus``).
_PROM_ACCEPT = ("text/plain", "application/openmetrics-text")
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Deployment:
    __slots__ = (
        "index", "spec", "artifact", "verification", "latency", "charges"
    )

    def __init__(self, index, spec, artifact, verification) -> None:
        self.index = index
        self.spec = spec
        self.artifact = artifact
        self.verification = verification
        # Telemetry: the pre-resolved latency-histogram child for this
        # deployment's spec-key label (None when telemetry is off) and a
        # plain charge count the scrape-time collector turns into the
        # epsilon-spent gauge — the hot path pays one histogram observe
        # and one integer increment, never a label resolution.
        self.latency = None
        self.charges = 0


class MechanismServer:
    """Async micro-batched mechanism server over a compiled store.

    Parameters
    ----------
    store:
        The :class:`~repro.release.artifacts.ArtifactStore` (or a path /
        ``None`` for the ``REPRO_ARTIFACT_DIR`` default) holding the
        compiled deployments.
    floor:
        Per-user privacy floor handed to each user's ledger; ``0``
        disables budget enforcement (accounting is still recorded).
    ledger_dir:
        When given, budgets live in a crash-safe
        :class:`~repro.release.durable_ledger.DurableLedger` at this
        directory (shared by N worker processes; budgets survive
        restarts). ``None`` keeps the in-memory book.
    ledger / ledger_fsync:
        ``ledger`` passes a pre-built ledger book directly (overrides
        ``ledger_dir``/``floor`` wiring); ``ledger_fsync`` picks the
        journal policy for a ``ledger_dir`` book — the default
        ``"group"`` amortizes one fsync per micro-batch flush (group
        commit), which keeps the release-implies-durable invariant
        because every batch is synced before its futures resolve.
    drain_deadline:
        Seconds :meth:`stop` waits for in-flight connections before
        cancelling them.
    faults:
        A :class:`~repro.serving.faults.FaultInjector` threaded through
        the batcher and durable ledger (chaos testing only).
    batch_window:
        Micro-batch deadline in seconds (see
        :class:`~repro.serving.batching.MicroBatcher`); ``0`` disables
        batching.
    batch_max:
        Micro-batch size bound.
    audit_rate:
        Fraction of responses fed to the online auditor; ``0`` disables
        the hook.
    audit_every:
        Run an audit sweep every this-many executed batches (``0``
        means only on explicit :meth:`audit` calls).
    verify:
        Verify every artifact on load (default). Loading an unverified
        artifact requires an explicit ``verify=False`` on
        :meth:`load_artifact` — the tamper-injection path used by the
        serving benchmark to prove the online audit catches what load
        verification was prevented from seeing.
    seed / audit_seed:
        Seeds for the sampling RNG and the auditor's slice RNG.
    telemetry:
        ``None`` (default) builds a :class:`repro.obs.Telemetry` over a
        private registry (merged with the process default registry —
        where the solver layer reports — at scrape time);
        ``False`` disables telemetry entirely (the configuration
        ``benchmarks/bench_observability.py`` measures overhead
        against); an explicit :class:`~repro.obs.Telemetry` is adopted
        as-is (shared registries across servers included).
    trace_rate / trace_dir / trace_ring / trace_seed:
        Tracer construction for the default telemetry: the fraction of
        requests traced end-to-end, the directory receiving the JSONL
        span log (``None`` keeps the in-memory ring only), the ring
        capacity behind ``GET /trace/recent``, and the sampling seed.
    queue_depth / shed_deadline:
        Admission control (PR 10): the bound on in-flight publishes and
        the deadline (seconds) above which a request's estimated queue
        wait sheds it — both enforced *before* any ledger charge, with
        429/503 + ``Retry-After``. ``0``/``0.0`` (the defaults) disable
        the gate entirely (no per-request overhead).
    degraded:
        ``"503"`` (default) keeps quarantine semantics; ``"geometric"``
        serves the certificate-verified geometric artifact at the same
        ``(n, alpha)`` in place of a quarantined bespoke one, with
        responses marked ``degraded`` (see :mod:`repro.serving.fallback`
        for the universality justification).
    wal_failure_policy / breaker_cooldown:
        What a charge means while the WAL cannot persist
        (``"reject-new-charges"``/``"reject"`` or
        ``"memory-mode-with-alarm"``/``"memory"``), and the circuit
        breaker's half-open probe interval in seconds.
    worker_id:
        Fleet slot label (set by the supervisor) echoed in
        ``/healthz``/``/readyz`` responses.
    """

    def __init__(
        self,
        store=None,
        *,
        floor=0,
        ledger_dir=None,
        ledger=None,
        ledger_fsync: str = "group",
        drain_deadline: float = 5.0,
        faults=None,
        batch_window: float = 0.002,
        batch_max: int = 4096,
        audit_rate: float = 0.05,
        audit_every: int = 64,
        verify: bool = True,
        seed=None,
        audit_seed=None,
        telemetry=None,
        trace_rate: float = 0.0,
        trace_dir=None,
        trace_ring: int = 1024,
        trace_seed=None,
        queue_depth: int = 0,
        shed_deadline: float = 0.0,
        degraded: str = "503",
        wal_failure_policy: str = "reject",
        breaker_cooldown: float = 1.0,
        worker_id=None,
    ) -> None:
        self.store = resolve_artifact_store(store)
        if self.store is None:
            raise ReproError(
                "MechanismServer needs an artifact store: pass one (or a "
                "path) or set REPRO_ARTIFACT_DIR"
            )
        self.floor = floor
        self.verify = bool(verify)
        self.drain_deadline = float(drain_deadline)
        self.faults = faults if faults is not None else NO_FAULTS
        self._rng = ensure_generator(seed)
        self._deployments: dict[str, _Deployment] = {}
        self._quarantined: dict[str, dict] = {}
        self._samplers: list = []
        self._fused: HeterogeneousAliasSampler | None = None
        if telemetry is False:
            obs = None
            self._owns_telemetry = False
        elif telemetry is None:
            obs = Telemetry(
                MetricsRegistry(),
                trace_rate=trace_rate,
                trace_dir=trace_dir,
                trace_ring=trace_ring,
                trace_seed=trace_seed,
            )
            self._owns_telemetry = True
        else:
            obs = telemetry
            self._owns_telemetry = False
        self.telemetry = obs
        self._obs = obs
        # Precomputed hot-path handles. The publish path must stay
        # within the bench-enforced overhead ceiling, so the per-request
        # telemetry work is all C-level: the sampling coin is a bound
        # RNG draw, the active-trace check a bound ContextVar.get, and
        # request/outcome tallies are plain dicts that the scrape-time
        # collector mirrors into the Prometheus families.
        self._may_trace = obs is not None and obs.tracer.rate > 0.0
        self._trace_rate = obs.tracer.rate if obs is not None else 0.0
        self._trace_coin = obs.tracer.coin if obs is not None else None
        self._trace_begin = obs.tracer.begin if obs is not None else None
        self._status_counts: dict[int, int] = {}
        self._outcome_counts = {
            "charged": 0, "rejected": 0, "replayed": 0, "pending": 0
        }
        self._latency_pending: list = []
        if ledger is not None:
            self.ledgers = ledger
            if obs is not None and getattr(ledger, "telemetry", None) is None:
                self.ledgers.telemetry = obs
        elif ledger_dir is not None:
            self.ledgers = DurableLedger(
                ledger_dir, floor, fsync=ledger_fsync, faults=self.faults,
                telemetry=obs,
            )
        else:
            self.ledgers = MemoryLedgerBook(floor)
        if degraded not in DEGRADED_MODES:
            raise ValidationError(
                f"degraded mode must be one of {DEGRADED_MODES}, got "
                f"{degraded!r}"
            )
        self.degraded = degraded
        self.worker_id = worker_id
        policy = _WAL_POLICY_ALIASES.get(wal_failure_policy)
        if policy is None:
            raise ValidationError(
                "wal_failure_policy must be one of "
                f"{sorted(_WAL_POLICY_ALIASES)}, got {wal_failure_policy!r}"
            )
        self.admission = (
            AdmissionController(int(queue_depth), float(shed_deadline))
            if (queue_depth or shed_deadline)
            else None
        )
        self.breaker = WALCircuitBreaker(
            policy=policy, cooldown=breaker_cooldown
        )
        self._spec_cache: dict[tuple, tuple[str, Fraction] | None] = {}
        self.auditor = OnlineAuditor(
            rate=audit_rate, rng=audit_seed
        )
        self.audit_every = int(audit_every)
        self._batches_since_sweep = 0
        self.batcher = MicroBatcher(
            self._execute, window=batch_window, max_size=batch_max,
            faults=self.faults, telemetry=obs,
        )
        if obs is not None:
            obs.registry.register_collector(self._collect_gauges)
        self.metrics = {
            "requests": 0,
            "published": 0,
            "replayed": 0,
            "rejected_budget": 0,
            "not_found": 0,
            "bad_request": 0,
            "quarantined_requests": 0,
            "shed": 0,
            "degraded": 0,
            "breaker_rejected": 0,
            "brownout_skips": 0,
            "ledger_unavailable": 0,
            "errors": 0,
            "audit_recorded": 0,
            "audit_sweeps": 0,
            "audit_flagged": 0,
        }
        self._http_server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._shutdown: asyncio.Event | None = None
        self._draining = False
        self._stopped = False

    # -- deployment lifecycle ------------------------------------------
    def load(self, spec: ArtifactSpec) -> int:
        """Load one compiled deployment from the store; returns its index.

        Misses are an error, not a compile: the request path (and the
        warm-up path) of a server must never run a solver — pre-warm
        with ``repro compile`` (``--side-grid`` for bespoke
        side-information artifacts).
        """
        existing = self._deployments.get(spec.key())
        if existing is not None:
            return existing.index
        artifact = self.store.get(spec)
        if artifact is None:
            raise ReproError(
                f"artifact {spec.canonical()!r} is not compiled in "
                f"{self.store.path}; run `repro compile` first"
            )
        return self.load_artifact(artifact)

    def load_artifact(self, artifact, *, verify: bool | None = None) -> int:
        """Register an artifact for serving; returns its batcher index.

        ``verify`` defaults to the server-wide setting; a verification
        failure refuses the deployment. Passing ``verify=False`` is the
        deliberately-unsafe injection port for audit testing.
        """
        verify = self.verify if verify is None else bool(verify)
        spec = artifact.spec
        existing = self._deployments.get(spec.key())
        if existing is not None:
            return existing.index
        verification = None
        if verify:
            verification = verify_artifact(artifact)
            if not verification.ok:
                raise ReproError(
                    f"artifact {spec.canonical()!r} failed load-time "
                    f"verification: {'; '.join(verification.failures)}"
                )
        index = len(self._samplers)
        self._samplers.append(artifact.sampler)
        self._fused = HeterogeneousAliasSampler(self._samplers)
        deployment = _Deployment(index, spec, artifact, verification)
        if self._obs is not None:
            deployment.latency = self._obs.publish_latency.labels(
                spec.key()[:12]
            )
        self._deployments[spec.key()] = deployment
        self.auditor.register(index, artifact)
        return index

    def load_store(self) -> int:
        """Load every (loadable) artifact in the store; returns the count.

        Damaged entries are skipped (they already fail ``repro cache
        verify``). A verification failure **quarantines** that one
        deployment — requests naming it get a 503 with the reason while
        every healthy artifact keeps serving — instead of refusing the
        whole store: one bad entry must not take down the service.
        """
        loaded = 0
        for key in self.store.keys():
            artifact = self.store.load_key(key)
            if artifact is None:
                continue
            try:
                self.load_artifact(artifact)
            except ReproError as err:
                self._quarantined[artifact.spec.key()] = {
                    "spec": artifact.spec,
                    "reason": str(err),
                }
                continue
            loaded += 1
        if self.degraded == "geometric" and self._quarantined:
            # Certified graceful degradation: pair each quarantined
            # bespoke deployment with the verified geometric artifact at
            # the same (n, alpha) — see serving/fallback.py for why that
            # is exactly privacy-preserving and minimax-utility-safe.
            resolve_fallbacks(self)
        return loaded

    @property
    def quarantined(self) -> dict[str, dict]:
        """Deployments refused at load, by spec key (503 when requested)."""
        return dict(self._quarantined)

    @property
    def deployments(self) -> tuple[_Deployment, ...]:
        return tuple(self._deployments.values())

    # -- the fused execution tick --------------------------------------
    def _execute(self, tables: np.ndarray, rows: np.ndarray) -> np.ndarray:
        obs = self._obs
        if obs is not None:
            t0 = time.perf_counter()
            # Batch-scoped span: the batcher has bound this batch's
            # traced requests, so the fused gather lands in each of
            # their traces.
            with obs.tracer.span("sampler.gather", queries=len(tables)):
                values = self._fused.sample(tables, rows, self._rng)
            obs.gather_latency.observe(time.perf_counter() - t0)
        else:
            values = self._fused.sample(tables, rows, self._rng)
        # Group commit: one fsync covers every charge journaled by this
        # batch's requests, and it lands *before* the batcher resolves
        # their futures — no response is released against a volatile
        # charge. (A no-op for the memory book and fsync="always".)
        try:
            self.ledgers.sync()
        except LedgerUnavailableError as err:
            self._trip_wal(str(err))
            if self.breaker.policy != "memory":
                # Fail this batch's futures: the charges may be on disk
                # but cannot be proven durable, so the responses are
                # withheld (over-protects the users, never under).
                raise
            # Memory policy: the book went volatile with this batch's
            # charges already counted, so the floor keeps binding; the
            # batch releases marked volatile.
        admission = self.admission
        if admission is not None and admission.brownout:
            # Brownout: shed our own optional work before any more user
            # requests — the audit slice can skip a tick, user traffic
            # cannot. Loud, never silent.
            self.metrics["brownout_skips"] += 1
            if self._obs is not None:
                self._obs.brownout_skips.labels("audit").inc()
        else:
            recorded = self.auditor.observe(tables, rows, values)
            if recorded:
                self.metrics["audit_recorded"] += recorded
        if self.audit_every > 0:
            self._batches_since_sweep += 1
            if self._batches_since_sweep >= self.audit_every:
                self.audit()
        return values

    def audit(self):
        """Run an audit sweep now; returns the findings."""
        self._batches_since_sweep = 0
        findings = self.auditor.sweep()
        self.metrics["audit_sweeps"] += 1
        self.metrics["audit_flagged"] = sum(1 for f in findings if f.flagged)
        obs = self._obs
        if obs is not None:
            for finding in findings:
                obs.audit_findings.labels(
                    "true" if finding.flagged else "false"
                ).inc()
                # Findings bypass trace sampling — a divergence from the
                # re-derived law is always worth a record.
                obs.tracer.event(
                    "audit.finding",
                    key=finding.key[:12],
                    kind=finding.kind,
                    samples=finding.samples,
                    statistic=finding.statistic,
                    limit=finding.limit,
                    flagged=finding.flagged,
                )
        return findings

    def _fold_latency(self) -> None:
        """Fold deferred latency samples into the histogram children.

        The request path records raw ``(deployment, elapsed)`` pairs
        (two C-level ops); this fold buckets them per deployment in one
        ``observe_many`` batch pass. Runs at every scrape/snapshot and
        whenever the pending list hits :data:`_LATENCY_FOLD_CAP`, which
        bounds deferred memory.
        """
        pending = self._latency_pending
        if not pending:
            return
        self._latency_pending = []
        by_deployment: dict = {}
        for deployment, elapsed in pending:
            bucket = by_deployment.get(deployment)
            if bucket is None:
                bucket = by_deployment[deployment] = []
            bucket.append(elapsed)
        for deployment, values in by_deployment.items():
            deployment.latency.observe_many(values)
            deployment.charges += len(values)

    def _collect_gauges(self) -> None:
        """Scrape-time collector: request tallies, budget burn, WAL.

        Registered on the telemetry registry, so the work — mirroring
        the hot-path dict tallies into their Prometheus families — happens
        per scrape/snapshot, never on the request path. The burn gauges
        cost O(metric series), not O(users): the book keeps the
        floor-proximity counts and the top burners current on every
        charge, and :meth:`~repro.release.durable_ledger.MemoryLedgerBook.burn_summary`
        reads them under one lock (and, for a durable book, one flock
        and one catch-up). Only the first scrape after the book loads
        walks its users. ``GET /obs/burn`` still walks every user: it is
        the operator drill-down. Never raises: a scrape must not fail
        because the ledger is mid-shutdown.
        """
        obs = self._obs
        try:
            self._fold_latency()
            for status, count in self._status_counts.items():
                obs.requests.labels("publish", str(status)).value = float(
                    count
                )
            for outcome, count in self._outcome_counts.items():
                if count:
                    obs.ledger_outcomes.labels(outcome).value = float(count)
            stats = self.ledgers.stats()
            if "journal_bytes" in stats:
                obs.wal_journal_bytes.set(stats["journal_bytes"])
            near_floor, top_burners = self.ledgers.burn_summary()
            for k, count in near_floor.items():
                obs.users_near_floor.labels(str(k)).set(count)
            for user, spent in top_burners:
                obs.user_spent_fraction.labels(user).set(spent)
            for deployment in self._deployments.values():
                alpha = float(deployment.spec.alpha)
                if 0 < alpha < 1:
                    obs.deployment_epsilon.labels(
                        deployment.spec.key()[:12]
                    ).set(deployment.charges * -math.log(alpha))
            obs.breaker_state.set(1.0 if self.breaker.open else 0.0)
            admission = self.admission
            if admission is not None:
                obs.admission_inflight.set(float(admission.inflight))
                obs.admission_brownout.set(
                    1.0 if admission.brownout else 0.0
                )
            if self.degraded == "geometric":
                obs.degraded_deployments.set(
                    float(
                        sum(
                            1
                            for q in self._quarantined.values()
                            if q.get("fallback_key") is not None
                        )
                    )
                )
            obs.worker_ready.set(1.0 if self.readiness()[0] else 0.0)
        except Exception:  # noqa: BLE001 - scrapes must stay available
            pass

    # -- request handling ----------------------------------------------
    def _resolve_spec(self, payload: dict) -> tuple[str, Fraction] | None:
        """Map request deployment fields to ``(spec key, exact alpha)``.

        Memoized per distinct field tuple, so steady-state requests skip
        Fraction parsing, spec validation, and the SHA-256 key
        computation entirely.
        """
        side = payload.get("side")
        cache_key = (
            payload.get("kind", "geometric"),
            payload.get("n"),
            payload.get("alpha"),
            payload.get("loss"),
            None if side is None else tuple(side),
        )
        try:
            hit = self._spec_cache.get(cache_key, _UNCACHED)
        except TypeError:
            hit = _UNCACHED  # unhashable request field: validate fresh
        if hit is not _UNCACHED:
            if hit is None:
                raise ValidationError("malformed deployment fields")
            return hit
        try:
            spec = ArtifactSpec(
                kind=payload.get("kind", "geometric"),
                n=int(payload["n"]),
                alpha=Fraction(str(payload["alpha"])),
                loss=payload.get("loss"),
                side=None if side is None else tuple(int(i) for i in side),
            )
            resolved = (spec.key(), spec.alpha)
        except (KeyError, TypeError, ValueError, ValidationError):
            try:
                self._spec_cache[cache_key] = None
            except TypeError:
                pass
            raise ValidationError(
                "deployment fields must include integer n and a "
                "parseable alpha (e.g. \"1/2\"); optional kind/loss/side "
                "must name a compiled artifact spec"
            ) from None
        self._spec_cache[cache_key] = resolved
        return resolved

    async def publish(self, payload: dict) -> tuple[int, dict]:
        """The core serving operation; returns ``(status, response)``.

        With admission control on, the bounded-queue/deadline gate runs
        here, strictly before any ledger interaction: a shed request
        (429 queue-full / 503 deadline, both with ``Retry-After``)
        provably spent zero budget, so clients retry it freely without
        an idempotency key. One admitted ticket is held per request and
        returned in a ``finally`` — even an injected crash (a
        ``BaseException``) gives the slot back, so the in-flight count
        can never leak upward.
        """
        admission = self.admission
        if admission is None:
            return await self._observed_publish(payload)
        deadline = None
        raw = payload.get("deadline_ms")
        if raw is not None:
            try:
                deadline = float(raw) / 1e3
            except (TypeError, ValueError):
                deadline = None
        shed = admission.try_admit(deadline)
        if shed is not None:
            self.metrics["shed"] += 1
            if self._obs is not None:
                self._obs.sheds.labels(shed.reason).inc()
                counts = self._status_counts
                counts[shed.status] = counts.get(shed.status, 0) + 1
            return shed.status, {
                "error": "overloaded: the request was shed before any "
                "budget charge; retry after the hinted delay (no "
                "idempotency key needed — nothing was spent)",
                "shed": shed.reason,
                "retry_after": round(shed.retry_after, 4),
            }
        t_admit = time.perf_counter()
        try:
            return await self._observed_publish(payload)
        finally:
            admission.release(time.perf_counter() - t_admit)

    async def _observed_publish(self, payload: dict) -> tuple[int, dict]:
        """Telemetry wrapper: one latency clock, the per-status request
        counter, and — for the sampled fraction — the root
        ``server.publish`` span bound to the task so every layer below
        joins the same trace. Traced responses carry the trace ID under
        ``"trace"``. Under brownout the trace coin is skipped entirely
        (optional work sheds first) and the skip is counted.
        """
        obs = self._obs
        if obs is None:
            return await self._publish(payload, 0.0)
        t0 = time.perf_counter()
        ctx = None
        admission = self.admission
        if self._may_trace and admission is not None and admission.brownout:
            self.metrics["brownout_skips"] += 1
            obs.brownout_skips.labels("trace").inc()
        elif self._may_trace:
            # Inline of Tracer.sample: one C-level RNG draw decides,
            # and only the sampled fraction constructs a context.
            rate = self._trace_rate
            if rate >= 1.0 or self._trace_coin() < rate:
                ctx = self._trace_begin()
        if ctx is None:
            status, response = await self._publish(payload, t0)
        else:
            token = obs.tracer.activate(ctx)
            try:
                with obs.tracer.span("server.publish"):
                    status, response = await self._publish(payload, t0, ctx)
            finally:
                obs.tracer.deactivate(token)
            response["trace"] = ctx.trace_id
        counts = self._status_counts
        counts[status] = counts.get(status, 0) + 1
        return status, response

    async def _publish(
        self, payload: dict, t0: float, trace_ctx=None
    ) -> tuple[int, dict]:
        self.metrics["requests"] += 1
        user = payload.get("user")
        if not isinstance(user, str) or not user:
            self.metrics["bad_request"] += 1
            return 400, {"error": "payload needs a non-empty string 'user'"}
        try:
            key, alpha = self._resolve_spec(payload)
        except ValidationError as err:
            self.metrics["bad_request"] += 1
            return 400, {"error": str(err)}
        degraded_from = None
        quarantined = self._quarantined.get(key)
        if quarantined is not None:
            fallback = None
            if self.degraded == "geometric":
                fb_key = quarantined.get("fallback_key")
                if fb_key is not None:
                    fallback = self._deployments.get(fb_key)
            if fallback is None:
                self.metrics["quarantined_requests"] += 1
                return 503, {
                    "error": "deployment is quarantined (failed load-time "
                    "verification); recompile it with `repro compile`",
                    "reason": quarantined["reason"],
                    "key": key[:12],
                }
            # Certified degradation: the same-(n, alpha) geometric
            # artifact is alpha-private under the identical constraint
            # and universally optimal for minimax agents (Theorem 1), so
            # the response is marked degraded but never weaker.
            degraded_from = key
            deployment = fallback
            key = fallback.spec.key()
        else:
            deployment = self._deployments.get(key)
            if deployment is None:
                self.metrics["not_found"] += 1
                return 404, {
                    "error": "deployment is not compiled/loaded; pre-warm "
                    "it with `repro compile` (use --side-grid for "
                    "side-information artifacts)",
                    "key": key[:12],
                }
        try:
            row = int(payload["true_result"])
        except (KeyError, TypeError, ValueError):
            self.metrics["bad_request"] += 1
            return 400, {"error": "payload needs an integer 'true_result'"}
        if not 0 <= row <= deployment.spec.n:
            self.metrics["bad_request"] += 1
            return 400, {
                "error": f"true_result must lie in [0, {deployment.spec.n}]"
            }
        idem = payload.get("idem")
        if idem is not None and not (
            isinstance(idem, str) and 0 < len(idem) <= _MAX_IDEM
        ):
            self.metrics["bad_request"] += 1
            return 400, {
                "error": "optional 'idem' must be a non-empty string of "
                f"at most {_MAX_IDEM} characters"
            }
        obs = self._obs
        # WAL circuit breaker: while open, "reject" refuses the charge
        # outright (503 + Retry-After, nothing spent, nothing released)
        # and "memory" charges the volatile book, alarm-marked. The
        # half-open probe piggybacks on request arrival — no timer task.
        breaker = self.breaker
        if breaker.open:
            if breaker.should_probe():
                self._recover_wal()
            if breaker.open and breaker.policy == "reject":
                self.metrics["breaker_rejected"] += 1
                return 503, {
                    "error": "privacy WAL is unavailable and the failure "
                    "policy is reject-new-charges: no charge was made and "
                    "no statistic was released",
                    "breaker": "open",
                    "reason": breaker.reason,
                    "retry_after": round(breaker.retry_after(), 4),
                }
        # ``trace_ctx`` rides in from the sampling decision in
        # ``publish``: untraced requests (the vast majority at low
        # sampling rates) carry ``None`` and skip all span machinery.
        label = f"serve:{key[:12]}"
        try:
            # Atomic charge-or-reject: budget is committed (and, for a
            # durable book, journaled) before the draw, so a crash
            # mid-batch can only over-protect. A replayed idempotency
            # key returns the original response without charging again.
            if trace_ctx is not None:
                with obs.tracer.span("ledger.charge", user=user):
                    decision = self.ledgers.charge(
                        user, alpha, label=label, idem=idem
                    )
            else:
                decision = self.ledgers.charge(
                    user, alpha, label=label, idem=idem
                )
        except LedgerUnavailableError as err:
            self._trip_wal(str(err))
            if breaker.policy != "memory":
                self.metrics["ledger_unavailable"] += 1
                return 503, {
                    "error": f"privacy ledger unavailable: {err}; the "
                    "charge was not recorded and no statistic was "
                    "released",
                    "retry_after": round(breaker.retry_after(), 4),
                }
            # _trip_wal made the book volatile (the floors it last
            # enforced keep binding); the charge retries in memory and
            # the response is marked "durability": "volatile".
            decision = self.ledgers.charge(user, alpha, label=label, idem=idem)
        if obs is not None:
            self._outcome_counts[decision.outcome] += 1
        if decision.outcome == "replayed":
            self.metrics["replayed"] += 1
            status, response = decision.replay
            return status, dict(response)
        if decision.outcome == "rejected":
            self.metrics["rejected_budget"] += 1
            return 429, {
                "error": (
                    f"release at alpha={alpha} would take user {user!r} "
                    f"below the privacy floor {self.floor}"
                ),
                "user": user,
                "cumulative_alpha": str(decision.cumulative_alpha),
                "remaining_alpha": str(decision.remaining_alpha),
            }
        # outcome "charged", or "pending" (the charge was journaled but
        # the response was lost — the budget is already spent, so
        # sampling a fresh response spends nothing extra).
        try:
            if trace_ctx is not None:
                value = await self.batcher.submit(
                    deployment.index, row, trace=trace_ctx
                )
            else:
                value = await self.batcher.submit(deployment.index, row)
        except LedgerUnavailableError as err:
            # The batch's group-commit fsync failed under the reject
            # policy: the charge may be on disk but cannot be proven
            # durable, so the response is withheld. Over-protects the
            # user's budget; never under.
            self.metrics["ledger_unavailable"] += 1
            return 503, {
                "error": f"durability lost mid-batch: {err}; the response "
                "is withheld (the charge, if journaled, only "
                "over-protects)",
                "retry_after": round(self.breaker.retry_after(), 4),
            }
        except Exception as err:  # the gather is pure numpy; be loud
            self.metrics["errors"] += 1
            return 500, {"error": f"sampling failed: {err}"}
        self.metrics["published"] += 1
        if obs is not None:
            # Deferred latency fold: the hot path only appends
            # ``(deployment, elapsed)``; bucketing happens in one
            # batched ``observe_many`` pass at scrape time
            # (_fold_latency), mirroring how the sampler fuses
            # per-request draws into one gather.
            pending = self._latency_pending
            pending.append((deployment, time.perf_counter() - t0))
            if len(pending) >= _LATENCY_FOLD_CAP:
                self._fold_latency()
        response = {
            "value": value,
            "user": user,
            "n": deployment.spec.n,
            "alpha": str(alpha),
            "key": key[:12],
            "cumulative_alpha": str(decision.cumulative_alpha),
        }
        if degraded_from is not None:
            response["degraded"] = "geometric"
            response["requested_key"] = degraded_from[:12]
            self.metrics["degraded"] += 1
            if obs is not None:
                obs.degraded_responses.inc()
        if self.breaker.open and self.breaker.policy == "memory":
            # The alarm in memory-mode-with-alarm: every volatile
            # release says so (alongside /healthz, /readyz, and the
            # breaker gauge) — a durability downgrade is never silent.
            response["durability"] = "volatile"
        if idem is not None:
            # Best-effort replay journal: losing it downgrades a retry
            # from "replayed" to "pending" (re-sample, never re-charge).
            with contextlib.suppress(LedgerUnavailableError):
                self.ledgers.record_result(idem, 200, response)
        self.faults.crash("server.before-response")
        return 200, response

    # -- WAL circuit breaker -------------------------------------------
    def _trip_wal(self, reason: str) -> None:
        """A persistence failure: open the breaker, loudly.

        Under the ``memory`` policy the book also goes volatile: it
        keeps charging in memory from the exact budgets it last enforced
        (fsync-ambiguous charges count as spent: over-protects) and
        queues the outage for backfill.
        """
        breaker = self.breaker
        was_open = breaker.open
        breaker.trip(reason)
        if breaker.policy == "memory":
            self.ledgers.go_volatile()
        if not was_open:
            obs = self._obs
            if obs is not None:
                obs.breaker_trips.labels("open").inc()
                # Bypasses trace sampling — a durability outage is
                # always worth a record.
                obs.tracer.event(
                    "wal.breaker-open", policy=breaker.policy, reason=reason
                )

    def _recover_wal(self) -> None:
        """Half-open probe: the book reopens its WAL, reloads, probes
        with an append plus an unconditional fsync, and backfills any
        volatile outage (see
        :meth:`~repro.release.durable_ledger.DurableLedger.recover`). On
        failure the breaker re-arms for another cooldown.
        """
        try:
            self.ledgers.recover()
        except Exception as err:  # noqa: BLE001 - probing must not crash
            self.breaker.trip(f"recovery probe failed: {err}")
            return
        self.breaker.reset()
        obs = self._obs
        if obs is not None:
            obs.breaker_trips.labels("recover").inc()
            obs.tracer.event("wal.breaker-recovered")

    # -- readiness ------------------------------------------------------
    def readiness(self) -> tuple[bool, list[str]]:
        """Readiness, distinct from ``/healthz`` liveness: may this
        worker take *new* traffic?

        Ready means artifacts are loaded, the server is not draining,
        and the WAL is writable (breaker closed, ledger not failed). A
        memory-mode outage is still not-ready — the worker keeps
        serving volatile responses to clients already talking to it,
        but a fleet should route fresh traffic elsewhere until
        durability returns.
        """
        reasons: list[str] = []
        if not self._deployments:
            reasons.append("no deployments loaded")
        if self._draining or self._stopped:
            reasons.append("draining")
        breaker = self.breaker
        if breaker.open:
            reasons.append(
                f"wal breaker open ({breaker.policy}): {breaker.reason}"
            )
        else:
            try:
                failed = self.ledgers.stats().get("failed")
            except Exception:  # noqa: BLE001 - readiness must not raise
                failed = "ledger stats unavailable"
            if failed:
                reasons.append(f"ledger failed: {failed}")
        return (not reasons, reasons)

    async def handle_request(
        self, method: str, path: str, payload: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        """Route one request (the transport-independent entry point).

        ``headers`` (lower-cased names) is optional and only consulted
        for content negotiation: ``GET /metrics`` returns the
        Prometheus text exposition instead of the legacy JSON shape
        when the Accept header asks for text/openmetrics (or the query
        string says ``format=prometheus``). Raw-text responses are
        conveyed as ``{"__raw__": text, "__content_type__": ...}`` —
        the HTTP transport unwraps them; in-process callers read the
        keys directly.
        """
        if method == "POST" and path == "/publish":
            return await self.publish(payload or {})
        path, _, query = path.partition("?")
        params = _parse_query(query)
        if method != "GET":
            return 405, {"error": f"method {method} not allowed"}
        status, response = self._route_get(path, params, headers)
        obs = self._obs
        if obs is not None:
            route = path.split("/", 2)[1] if path.startswith("/") else path
            obs.requests.labels(route or "root", str(status)).inc()
        return status, response

    def _route_get(
        self, path: str, params: dict, headers: dict | None
    ) -> tuple[int, dict]:
        if path == "/healthz":
            breaker = self.breaker
            health = {
                "status": "ok",
                "deployments": len(self._deployments),
                "quarantined": len(self._quarantined),
                "draining": self._draining,
                # Ledger/WAL health: journal bytes, seq, last-fsync
                # latency, compaction count for a durable book.
                "ledger": self.ledgers.stats(),
                "breaker": breaker.snapshot(),
                "durability": (
                    "volatile"
                    if breaker.open and breaker.policy == "memory"
                    else "durable"
                    if getattr(self.ledgers, "durable", False)
                    else "memory"
                ),
                "degraded_mode": self.degraded,
            }
            if self.worker_id is not None:
                health["worker"] = self.worker_id
            if self.admission is not None:
                health["admission"] = self.admission.snapshot()
            return 200, health
        if path == "/readyz":
            # Readiness gates *new* traffic; /healthz answers "alive".
            ready, reasons = self.readiness()
            body: dict = {"ready": ready}
            if reasons:
                body["reasons"] = reasons
            if self.worker_id is not None:
                body["worker"] = self.worker_id
            return (200 if ready else 503), body
        if path == "/artifacts":
            return 200, {
                "artifacts": [
                    {
                        "kind": d.spec.kind,
                        "n": d.spec.n,
                        "alpha": str(d.spec.alpha),
                        "loss": d.spec.loss,
                        "side": (
                            None if d.spec.side is None else list(d.spec.side)
                        ),
                        "key": d.spec.key()[:12],
                        "verified": (
                            d.verification.ok
                            if d.verification is not None
                            else False
                        ),
                    }
                    for d in self._deployments.values()
                ],
                "quarantined": [
                    {
                        "kind": q["spec"].kind,
                        "n": q["spec"].n,
                        "alpha": str(q["spec"].alpha),
                        "key": key[:12],
                        "reason": q["reason"],
                        # Non-None when --degraded=geometric attached a
                        # verified geometric fallback serving in its
                        # place.
                        "degraded_to": (
                            None
                            if q.get("fallback_key") is None
                            else q["fallback_key"][:12]
                        ),
                    }
                    for key, q in self._quarantined.items()
                ],
            }
        if path == "/metrics":
            if self._wants_prometheus(params, headers):
                if self._obs is None:
                    return 404, {
                        "error": "telemetry is disabled on this server"
                    }
                text = self._obs.registry.render()
                if self._obs.registry is not default_registry():
                    # Merge in the process-default registry, where the
                    # solver layer (solve cache, artifact store, hybrid
                    # certification) reports — one scrape, whole stack.
                    text += default_registry().render()
                return 200, {
                    "__raw__": text,
                    "__content_type__": _PROM_CONTENT_TYPE,
                }
            return 200, {
                "metrics": dict(self.metrics),
                "batcher": dict(self.batcher.stats),
                "admission": (
                    None
                    if self.admission is None
                    else self.admission.snapshot()
                ),
                "breaker": self.breaker.snapshot(),
                "audit": {
                    "rate": self.auditor.rate,
                    "samples": self.auditor.samples,
                    "findings": [
                        {
                            "key": f.key[:12],
                            "kind": f.kind,
                            "samples": f.samples,
                            "sufficient": f.sufficient,
                            "statistic": f.statistic,
                            "limit": f.limit,
                            "flagged": f.flagged,
                        }
                        for f in self.auditor.last_findings
                    ],
                },
                "ledger": self.ledgers.stats(),
                "users": self.ledgers.users(),
            }
        if path.startswith("/ledger/"):
            user = path[len("/ledger/"):]
            budget = self.ledgers.view(user)
            if budget is None:
                return 404, {"error": f"no releases recorded for {user!r}"}
            return 200, {
                "user": user,
                "releases": budget.releases,
                "floor": str(budget.floor),
                "cumulative_alpha": str(budget.cumulative_alpha),
                "cumulative_epsilon": budget.cumulative_epsilon,
                "remaining_alpha": str(budget.remaining_alpha),
            }
        if path == "/trace/recent":
            if self._obs is None:
                return 404, {"error": "telemetry is disabled on this server"}
            try:
                limit = int(params.get("limit", 100))
            except ValueError:
                return 400, {"error": "limit must be an integer"}
            spans = self._obs.tracer.recent(
                limit,
                name=params.get("name"),
                trace=params.get("trace"),
            )
            return 200, {"spans": spans, "emitted": self._obs.tracer.emitted}
        if path == "/obs/burn":
            rows = burn_rows_from_book(self.ledgers)
            try:
                limit = int(params.get("limit", 50))
            except ValueError:
                return 400, {"error": "limit must be an integer"}
            return 200, {
                "users": len(rows),
                "floor_proximity": floor_proximity(rows),
                "rows": [row.to_dict() for row in rows[:limit]],
            }
        return 404, {"error": f"no route for GET {path}"}

    @staticmethod
    def _wants_prometheus(params: dict, headers: dict | None) -> bool:
        if params.get("format") == "prometheus":
            return True
        if headers is None:
            return False
        accept = headers.get("accept", "")
        return any(kind in accept for kind in _PROM_ACCEPT)

    # -- HTTP/1.1 transport --------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        # Registered so a graceful drain can await in-flight handlers
        # (bounded by drain_deadline) instead of abandoning keep-alive
        # connections mid-response.
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    head = await self._read_head(reader)
                except ValueError as err:
                    # Malformed framing (an over-long line, a bad or
                    # oversized Content-Length): where the next request
                    # would start is unknown, so answer 400 and close.
                    self.metrics["bad_request"] += 1
                    await self._respond(
                        writer, 400, {"error": f"malformed request: {err}"},
                        keep_alive=False,
                    )
                    break
                if head is None:
                    break
                method, target, headers, length = head
                body = await reader.readexactly(length) if length else b""
                status = None
                payload = None
                if body:
                    try:
                        payload = json.loads(body)
                        if not isinstance(payload, dict):
                            raise ValueError("body must be an object")
                    except ValueError as err:
                        self.metrics["bad_request"] += 1
                        status, response = 400, {
                            "error": f"malformed JSON body: {err}"
                        }
                if status is None:
                    status, response = await self.handle_request(
                        method, target, payload, headers
                    )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                ) and not self._draining
                await self._respond(
                    writer, status, response, keep_alive=keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_head(reader):
        """Read one request head as ``(method, target, headers, body
        length)``; ``None`` at end of stream. Raises ``ValueError`` for
        malformed framing — the stream reader itself raises it for a
        line past its 64 KiB limit."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError("the request line is not METHOD TARGET VERSION")
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length") or "0"
        if not (length.isascii() and length.isdigit()):
            raise ValueError(
                f"Content-Length must be a non-negative integer, got "
                f"{length[:32]!r}"
            )
        if int(length) > _MAX_BODY:
            raise ValueError("request body too large")
        return parts[0], parts[1], headers, int(length)

    @staticmethod
    async def _respond(writer, status, response, *, keep_alive) -> None:
        if isinstance(response, dict) and "__raw__" in response:
            # A content-negotiated raw-text response (the Prometheus
            # exposition) — serve it verbatim.
            data = response["__raw__"].encode("utf-8")
            content_type = response.get(
                "__content_type__", "text/plain; charset=utf-8"
            )
        else:
            data = json.dumps(response).encode("utf-8")
            content_type = "application/json"
        # Backpressure hint: shed/breaker responses carry a retry_after
        # estimate; surface it as a real Retry-After header (fractional
        # seconds) so plain HTTP clients can pace themselves without
        # parsing the body.
        retry_after = (
            response.get("retry_after")
            if status in (429, 503) and isinstance(response, dict)
            else None
        )
        retry_header = (
            f"Retry-After: {max(0.0, float(retry_after)):.3f}\r\n"
            if isinstance(retry_after, (int, float))
            else ""
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{retry_header}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
            f"\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    async def start(
        self, host: str = "127.0.0.1", port: int = 0, *, sock=None
    ) -> None:
        """Bind the HTTP listener (``port=0`` picks an ephemeral port).

        ``sock`` serves on an existing bound-and-listening socket
        instead — the supervisor path, where every worker in the fleet
        inherits the same ``SO_REUSEPORT`` listener so the kernel
        load-balances accepts across them.
        """
        if self._http_server is not None:
            raise ReproError("server is already started")
        if sock is not None:
            self._http_server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._http_server = await asyncio.start_server(
                self._handle_connection, host, port
            )

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._http_server is None:
            raise ReproError("server is not started")
        return self._http_server.sockets[0].getsockname()[1]

    async def stop(self, *, drain_deadline: float | None = None) -> None:
        """Graceful drain: stop accepting, finish in-flight work, flush
        the batcher, fsync and close the ledger.

        In-flight keep-alive handlers are awaited up to
        ``drain_deadline`` seconds (the server default when ``None``);
        stragglers — typically idle keep-alive connections parked on a
        read — are then cancelled. A book left volatile by a WAL outage
        gets one recovery probe before it closes, so the outage's acked
        charges reach the journal; if the WAL is still down, a warning
        on stderr counts the users whose outage charges stay
        unjournaled. Idempotent: a second call is a no-op.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        deadline = (
            self.drain_deadline if drain_deadline is None else drain_deadline
        )
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        self.batcher.flush(reason="close")
        pending = {t for t in self._connections if not t.done()}
        if pending:
            _done, alive = await asyncio.wait(pending, timeout=deadline)
            for task in alive:
                task.cancel()
            if alive:
                await asyncio.gather(*alive, return_exceptions=True)
        # Handlers drained after the first flush may have parked more
        # queries; flush again before failing anything still pending.
        self.batcher.flush(reason="close")
        self.batcher.close()
        breaker = self.breaker
        if breaker.open and breaker.policy == "memory":
            # The book is volatile: acked charges of the outage live only
            # in memory. One last probe journals them before closing.
            self._recover_wal()
            if breaker.open:
                lost = self.ledgers.stats().get("unjournaled_users", 0)
                print(
                    f"warning: the WAL is still unavailable at shutdown "
                    f"({breaker.reason}); the outage charges of {lost} "
                    "user(s) were not journaled",
                    file=sys.stderr,
                )
        self.ledgers.close()  # fsyncs whatever the last batch journaled
        if self._obs is not None:
            # Flush the span log; close it only if this server built the
            # telemetry (a shared Telemetry may outlive one server).
            if self._owns_telemetry:
                self._obs.close()
            else:
                self._obs.tracer.flush()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to drain and exit (signal-safe when
        registered via ``loop.add_signal_handler``)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_forever(self, *, install_signal_handlers=False) -> None:
        """Serve until cancelled or shut down (the ``repro serve`` loop).

        With ``install_signal_handlers=True``, ``SIGTERM`` and
        ``SIGINT`` trigger a graceful drain (stop accepting, await open
        handlers, flush the batcher, fsync the ledger) instead of
        killing the process mid-charge.
        """
        if self._http_server is None:
            raise ReproError("call start() before serve_forever()")
        self._shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    continue  # pragma: no cover - non-POSIX loop
                installed.append(signum)
        shutdown_task = asyncio.create_task(self._shutdown.wait())
        server_task = asyncio.create_task(self._http_server.serve_forever())
        try:
            await asyncio.wait(
                {shutdown_task, server_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
        except asyncio.CancelledError:
            pass
        finally:
            for task in (shutdown_task, server_task):
                task.cancel()
            await asyncio.gather(
                shutdown_task, server_task, return_exceptions=True
            )
            for signum in installed:
                with contextlib.suppress(ValueError, RuntimeError):
                    loop.remove_signal_handler(signum)
            await self.stop()
