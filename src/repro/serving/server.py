"""The mechanism-serving subsystem: ``repro serve``.

One published geometric release serves every minimax consumer optimally
(Theorem 1), so heterogeneous deployments (different ``n``, ``alpha``,
bespoke side-information mechanisms) share one statistic service, built
only from pieces the pipeline has already *proved*:

* mechanisms come from compiled, **load-verified** artifacts in an
  :class:`~repro.release.artifacts.ArtifactStore` — an uncompiled spec
  is a 404, so the request path never runs a solver, and an artifact
  that fails verification is quarantined (a 503 on it alone);
* concurrent requests are micro-batched
  (:class:`~repro.serving.batching.MicroBatcher`) into one fused
  :class:`~repro.sampling.alias.HeterogeneousAliasSampler` gather;
* every release is charged to its user's budget *before* sampling, in a
  :class:`~repro.release.durable_ledger.MemoryLedgerBook` or, with a
  ledger directory, a crash-safe
  :class:`~repro.release.durable_ledger.DurableLedger` whose journal is
  synced before the response is released (a crash can only
  over-protect). Crossing the floor is a 429; the charge-or-reject is
  atomic, and an ``"idem"`` key makes a retry replay instead of
  charging twice;
* a sampled slice of responses feeds the
  :class:`~repro.serving.audit.OnlineAuditor`, which replays it against
  the geometric law re-derived from the spec;
* when the WAL stops persisting, the circuit breaker
  (:mod:`repro.serving.overload`) refuses charges or turns the book
  volatile until a probe recovers it and backfills the outage.

A publish runs four stages over one request record — parse, charge,
sample, respond — and every answer leaves through
:meth:`MechanismServer.reply`, which counts it. The settings live in one
:class:`~repro.serving.config.ServerConfig`; HTTP/1.1 framing, limits and
the wire's refusals live in :mod:`repro.serving.edge`. Every request,
over a socket or in process, enters through
:meth:`MechanismServer.handle_request`::

    POST /publish {"user": "gov", "n": 100, "alpha": "1/2",
                   "true_result": 42, "idem": "optional-retry-key"}
      -> 200 {"value": 41, "alpha": "1/2", "n": 100, ...}
      -> 404 unknown/uncompiled deployment
      -> 429 {"error": "..."} when the user's budget floor is hit
      -> 503 quarantined deployment or unavailable durable ledger

``GET /healthz``, ``/readyz``, ``/artifacts``, ``/metrics`` (JSON, or
the Prometheus text exposition), ``/ledger/<user>``, ``/trace/recent``
and ``/obs/burn`` expose liveness, readiness, the deployments, counters
and audit findings, per-user accounting, the span ring and the budget
burn-down; each is one small view method. ``SIGTERM``/``SIGINT`` drain
gracefully: stop accepting, await open connections, flush the batcher,
fsync and close the ledger.

Every server builds its :class:`~repro.obs.Telemetry`; there is no
telemetry-off path. Each count is kept once, by the layer that does the
work (the server's own tallies, the batcher's ``flush_reasons`` and
batch sizes, admission's sheds, the book's compactions and journal
timings, the auditor's samples), and :meth:`MechanismServer._collect`,
the one scrape-time collector, exposes them; :attr:`MechanismServer.metrics`
is the JSON view of the same stores.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import math
import signal
import sys
import time
from fractions import Fraction

import numpy as np

from ..exceptions import ReproError, ValidationError
from ..obs import (
    Telemetry,
    burn_rows_from_book,
    default_registry,
    floor_proximity,
)
from ..obs.metrics import FOLD_CAP, LatencyLog
from ..obs.tracing import span
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
from .config import ServerConfig
from .edge import serve_connection
from .fallback import resolve_fallbacks
from .overload import AdmissionController, WALCircuitBreaker

__all__ = ["MechanismServer"]

#: Idempotency keys above this length are rejected (they are journaled;
#: unbounded keys would be a disk-growth vector).
_MAX_IDEM = 128

#: Sentinel distinguishing "cached as invalid" from "not cached".
_UNCACHED = object()

#: The counters of ``GET /metrics``'s JSON ``"metrics"`` object, in order.
_COUNTERS = (
    "requests", "published", "replayed", "rejected_budget", "not_found",
    "bad_request", "quarantined_requests", "shed", "degraded",
    "breaker_rejected", "brownout_skips", "ledger_unavailable", "errors",
    "audit_recorded", "audit_sweeps", "audit_flagged",
)

#: Those of :data:`_COUNTERS` that another store keeps; the server
#: keeps the rest in ``_counts``.
_DERIVED = (
    "replayed", "rejected_budget", "shed", "brownout_skips", "audit_recorded"
)


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


def _limit(params: dict, default: int) -> int | None:
    """The ``limit`` parameter as a non-negative integer; ``None`` when
    it is anything else."""
    text = params.get("limit")
    if text is None:
        return default
    return int(text) if text.isascii() and text.isdigit() else None


_BAD_LIMIT = "limit must be a non-negative integer"


def _count(family, count, *labels: str) -> None:
    """Expose one layer's count once it is nonzero."""
    if count:
        family.labels(*labels).value = float(count)


def _timed(family, log: LatencyLog, *labels: str) -> None:
    """Expose one layer's latency log once it holds an observation."""
    series = log.fold()
    if series.count:
        family.attach(series, *labels)


#: ``GET /metrics`` serves the Prometheus text exposition instead of
#: JSON when the Accept header asks for one of these (or the query
#: string carries ``format=prometheus``).
_PROM_ACCEPT = ("text/plain", "application/openmetrics-text")
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Deployment:
    __slots__ = ("index", "spec", "artifact", "verification", "latency")

    def __init__(self, index, spec, artifact, verification) -> None:
        self.index = index
        self.spec = spec
        self.artifact = artifact
        self.verification = verification
        # Publish latencies; their count is the charges behind the
        # epsilon-spent gauge.
        self.latency = LatencyLog()


class _Request:
    """One publish in flight: the payload, then what each stage found."""

    __slots__ = (
        "payload", "t0", "trace", "user", "key", "alpha", "deployment",
        "degraded_from", "row", "idem", "decision", "value",
    )

    def __init__(self, payload: dict, t0: float, trace) -> None:
        self.payload = payload
        self.t0 = t0
        self.trace = trace
        self.degraded_from = None


class MechanismServer:
    """Async micro-batched mechanism server over a compiled store.

    Parameters
    ----------
    store:
        The :class:`~repro.release.artifacts.ArtifactStore` (or a path /
        ``None`` for the ``REPRO_ARTIFACT_DIR`` default) holding the
        compiled deployments.
    config / settings:
        A :class:`~repro.serving.config.ServerConfig`, or its fields as
        keywords (``floor=``, ``ledger_dir=``, ``batch_window=``, …);
        every setting, its default and its validation are documented
        there. An unknown keyword raises.
    ledger:
        A pre-built ledger book, used instead of the one ``ledger_dir``
        and ``floor`` would build.
    faults:
        A :class:`~repro.serving.faults.FaultInjector` threaded through
        the batcher and durable ledger (chaos testing only).
    """

    def __init__(
        self, store=None, *, config: ServerConfig | None = None,
        ledger=None, faults=None, **settings,
    ) -> None:
        if config is None:
            config = ServerConfig.of(settings)
        elif settings:
            raise ValidationError(
                f"pass settings in config= or as keywords, not both: "
                f"{', '.join(sorted(settings))}"
            )
        self.config = config
        self.store = resolve_artifact_store(store)
        if self.store is None:
            raise ReproError(
                "MechanismServer needs an artifact store: pass one (or a "
                "path) or set REPRO_ARTIFACT_DIR"
            )
        self.faults = faults if faults is not None else NO_FAULTS
        self._rng = ensure_generator(config.seed)
        self._deployments: dict[str, _Deployment] = {}
        self._quarantined: dict[str, dict] = {}
        self._samplers: list = []
        self._fused: HeterogeneousAliasSampler | None = None
        self.telemetry = Telemetry(
            trace_rate=config.trace_rate,
            trace_dir=config.trace_dir,
            trace_ring=config.trace_ring,
            trace_seed=config.trace_seed,
        )
        # Hot-path tallies are plain dicts that the scrape-time collector
        # mirrors into the Prometheus families.
        self._counts = {key: 0 for key in _COUNTERS if key not in _DERIVED}
        self._status_counts: dict[int, int] = {}
        self._outcome_counts = dict.fromkeys(
            ("charged", "rejected", "replayed", "pending"), 0
        )
        self._brownout_skips = {"audit": 0, "trace": 0}
        self._gather_latency = LatencyLog()
        if ledger is not None:
            self.ledgers = ledger
        elif config.ledger_dir is not None:
            self.ledgers = DurableLedger(
                config.ledger_dir, config.floor, fsync=config.ledger_fsync,
                faults=self.faults,
            )
        else:
            self.ledgers = MemoryLedgerBook(config.floor)
        self.admission = (
            AdmissionController(config.queue_depth, config.shed_deadline)
            if (config.queue_depth or config.shed_deadline)
            else None
        )
        self.breaker = WALCircuitBreaker(
            policy=config.wal_failure_policy, cooldown=config.breaker_cooldown
        )
        self._spec_cache: dict[tuple, tuple[str, Fraction] | None] = {}
        self.auditor = OnlineAuditor(
            rate=config.audit_rate, rng=config.audit_seed
        )
        self._batches_since_sweep = 0
        self.batcher = MicroBatcher(
            self._execute, window=config.batch_window,
            max_size=config.batch_max, faults=self.faults,
        )
        self.telemetry.registry.register_collector(self._collect)
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

    def load_artifact(self, artifact, *, verify: bool = True) -> int:
        """Register an artifact for serving; returns its batcher index.

        A verification failure refuses the deployment. Passing
        ``verify=False`` is the deliberately-unsafe injection port for
        audit testing: the online audit must catch what load
        verification was prevented from seeing.
        """
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
        self.telemetry.publish_latency.attach(
            deployment.latency.child, spec.key()[:12]
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
        if self.config.degraded == "geometric" and self._quarantined:
            # Certified graceful degradation: see serving/fallback.py.
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
        t0 = time.perf_counter()
        # Batch-scoped: the gather lands in every traced request's trace.
        with span("sampler.gather", queries=len(tables)):
            values = self._fused.sample(tables, rows, self._rng)
        self._gather_latency.add(time.perf_counter() - t0)
        # Group commit: one fsync covers every charge journaled by this
        # batch's requests, and it lands *before* the batcher resolves
        # their futures — no response is released against a volatile
        # charge. (A no-op for the memory book and fsync="always".)
        try:
            self.ledgers.sync()
        except LedgerUnavailableError as err:
            self._trip_wal(str(err))
            if self.breaker.policy != "memory":
                # Fail the batch: its charges cannot be proven durable,
                # so the responses are withheld (over-protects).
                raise
            # Memory policy: the book went volatile with this batch's
            # charges counted; the batch releases marked volatile.
        admission = self.admission
        if admission is not None and admission.brownout:
            # Brownout: the audit slice skips a tick before any user
            # request is shed — counted, never silent.
            self._brownout_skips["audit"] += 1
        else:
            self.auditor.observe(tables, rows, values)
        if self.config.audit_every > 0:
            self._batches_since_sweep += 1
            if self._batches_since_sweep >= self.config.audit_every:
                self.audit()
        return values

    def audit(self):
        """Run an audit sweep now; returns the findings."""
        self._batches_since_sweep = 0
        findings = self.auditor.sweep()
        self._counts["audit_sweeps"] += 1
        self._counts["audit_flagged"] = sum(1 for f in findings if f.flagged)
        obs = self.telemetry
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

    @property
    def metrics(self) -> dict:
        """The JSON ``/metrics`` counters, each read from its one store:
        the server's own tallies, the ledger outcomes (``replayed``,
        ``rejected_budget``), admission (``shed``) and the auditor
        (``audit_recorded``)."""
        admission = self.admission
        sheds = {} if admission is None else admission.stats
        counts = {
            **self._counts,
            "replayed": self._outcome_counts["replayed"],
            "rejected_budget": self._outcome_counts["rejected"],
            "shed": sheds.get("shed_queue_full", 0)
            + sheds.get("shed_deadline", 0),
            "brownout_skips": sum(self._brownout_skips.values()),
            "audit_recorded": self.auditor.samples,
        }
        return {key: counts[key] for key in _COUNTERS}

    def _collect(self) -> None:
        """Scrape-time collector: every layer's counts and timings into
        their Prometheus families.

        The layers keep each count once, in their own tallies, and the
        families are filled from them here, per scrape, never per
        request; latencies parked raw are bucketed here too. The burn
        gauges cost O(metric series), not O(users): the book keeps the
        floor-proximity counts and the top burners current on every
        charge (see ``MemoryLedgerBook.burn_summary``); ``GET /obs/burn``
        is the drill-down that walks every user. Never raises: a scrape
        must not fail because the ledger is mid-shutdown.
        """
        obs = self.telemetry
        try:
            for status, count in self._status_counts.items():
                _count(obs.requests, count, "publish", str(status))
            for outcome, count in self._outcome_counts.items():
                _count(obs.ledger_outcomes, count, outcome)
            batcher = self.batcher
            for reason, count in batcher.flush_reasons.items():
                _count(obs.batch_flushes, count, reason)
            if batcher.rows:
                sizes = obs.batch_size.labels()
                sizes.counts, sizes.sum = batcher.sizes, batcher.rows
                sizes.count = sum(batcher.sizes)
            _timed(obs.batch_flush_latency, batcher.flush_latency)
            _timed(obs.gather_latency, self._gather_latency)
            book = self.ledgers
            stats = book.stats()
            if "journal_bytes" in stats:
                obs.wal_journal_bytes.set(stats["journal_bytes"])
            _timed(obs.wal_append_latency, book.append_latency)
            _timed(
                obs.wal_fsync_latency, book.fsync_latency,
                stats.get("fsync", ""),
            )
            _count(obs.ledger_compactions, stats.get("compactions"))
            for kind, count in self._brownout_skips.items():
                _count(obs.brownout_skips, count, kind)
            _count(obs.degraded_responses, self._counts["degraded"])
            breaker = self.breaker
            _count(obs.breaker_trips, breaker.trips, "open")
            _count(obs.breaker_trips, breaker.recoveries, "recover")
            obs.breaker_state.set(1.0 if breaker.open else 0.0)
            admission = self.admission
            if admission is not None:
                for reason in ("queue_full", "deadline"):
                    count = admission.stats[f"shed_{reason}"]
                    _count(obs.sheds, count, reason)
                obs.admission_inflight.set(float(admission.inflight))
                obs.admission_brownout.set(
                    1.0 if admission.brownout else 0.0
                )
            for deployment in self._deployments.values():
                charges = deployment.latency.fold().count
                alpha = float(deployment.spec.alpha)
                if 0 < alpha < 1:
                    obs.deployment_epsilon.labels(
                        deployment.spec.key()[:12]
                    ).set(charges * -math.log(alpha))
            if self.config.degraded == "geometric":
                fallbacks = [
                    q for q in self._quarantined.values()
                    if q.get("fallback_key") is not None
                ]
                obs.degraded_deployments.set(float(len(fallbacks)))
            obs.worker_ready.set(1.0 if self.readiness()[0] else 0.0)
            # Last: a closed or failed book raises here.
            near_floor, top_burners = book.burn_summary()
            for k, count in near_floor.items():
                obs.users_near_floor.labels(str(k)).set(count)
            # Exactly the current top burners: a user who left the top
            # loses its series instead of keeping a stale value.
            spent_gauge = obs.user_spent_fraction
            spent_gauge.retain((user,) for user, _ in top_burners)
            for user, spent in top_burners:
                spent_gauge.labels(user).set(spent)
        except Exception:  # noqa: BLE001 - scrapes must stay available
            pass

    # -- the publish pipeline ------------------------------------------
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

    def reply(
        self, status: int, counter: str | None, body: dict
    ) -> tuple[int, dict]:
        """Count one answer under its status and, unless the layer that
        decided it keeps that count (``None``), its ``metrics`` key; and
        return it: the one exit of every publish stage and of the HTTP
        edge's refusals."""
        if counter is not None:
            self._counts[counter] += 1
        counts = self._status_counts
        counts[status] = counts.get(status, 0) + 1
        return status, body

    async def publish(self, payload: dict) -> tuple[int, dict]:
        """The core serving operation; returns ``(status, response)``.

        With admission control on, the queue/deadline gate runs here,
        before any ledger interaction: a shed request (429 queue-full or
        503 deadline, with ``Retry-After``) provably spent nothing, so
        clients retry it freely. The admitted ticket is returned in a
        ``finally``, so even an injected crash cannot leak the in-flight
        count upward.
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
            return self.reply(shed.status, None, {
                "error": "overloaded: the request was shed before any "
                "budget charge; retry after the hinted delay (no "
                "idempotency key needed — nothing was spent)",
                "shed": shed.reason,
                "retry_after": round(shed.retry_after, 4),
            })
        t_admit = time.perf_counter()
        try:
            return await self._observed_publish(payload)
        finally:
            admission.release(time.perf_counter() - t_admit)

    async def _observed_publish(self, payload: dict) -> tuple[int, dict]:
        """Telemetry wrapper: one latency clock and, for the sampled
        fraction, the root ``server.publish`` span that every layer below
        joins; traced responses carry ``"trace"``. Under brownout the
        trace coin is skipped (optional work sheds first), counted.
        """
        tracer = self.telemetry.tracer
        t0 = time.perf_counter()
        rate = tracer.rate
        ctx = None
        if rate > 0.0:
            admission = self.admission
            if admission is not None and admission.brownout:
                self._brownout_skips["trace"] += 1
            elif rate >= 1.0 or tracer.coin() < rate:
                # Inline of Tracer.sample: one C-level RNG draw decides,
                # and only the sampled fraction constructs a context.
                ctx = tracer.begin()
        if ctx is None:
            return await self._publish(payload, t0, None)
        token = tracer.activate(ctx)
        try:
            with span("server.publish"):
                status, response = await self._publish(payload, t0, ctx)
        finally:
            tracer.deactivate(token)
        response["trace"] = ctx.trace_id
        return status, response

    async def _publish(self, payload: dict, t0: float, trace):
        """The stages, in order; each returns ``None`` to go on or the
        ``(status, body)`` that ends the request."""
        self._counts["requests"] += 1
        request = _Request(payload, t0, trace)
        return (
            self._parse(request)
            or self._charge(request)
            or await self._sample(request)
            or self._respond(request)
        )

    def _parse(self, req: _Request):
        """User, spec, deployment, row and idempotency key, with the 400,
        404 and quarantined-503 refusals."""
        payload = req.payload
        user = payload.get("user")
        if not isinstance(user, str) or not user:
            return self.reply(400, "bad_request", {
                "error": "payload needs a non-empty string 'user'"
            })
        try:
            key, alpha = self._resolve_spec(payload)
        except ValidationError as err:
            return self.reply(400, "bad_request", {"error": str(err)})
        quarantined = self._quarantined.get(key)
        if quarantined is not None:
            # Certified degradation (``--degraded geometric`` attached a
            # fallback): the same-(n, alpha) geometric artifact is
            # alpha-private under the identical constraint and
            # universally optimal for minimax agents (Theorem 1), so the
            # response is marked degraded but never weaker.
            deployment = self._deployments.get(quarantined.get("fallback_key"))
            if deployment is None:
                return self.reply(503, "quarantined_requests", {
                    "error": "deployment is quarantined (failed load-time "
                    "verification); recompile it with `repro compile`",
                    "reason": quarantined["reason"],
                    "key": key[:12],
                })
            req.degraded_from, key = key, deployment.spec.key()
        else:
            deployment = self._deployments.get(key)
            if deployment is None:
                return self.reply(404, "not_found", {
                    "error": "deployment is not compiled/loaded; pre-warm "
                    "it with `repro compile` (use --side-grid for "
                    "side-information artifacts)",
                    "key": key[:12],
                })
        try:
            row = int(payload["true_result"])
        except (KeyError, TypeError, ValueError):
            return self.reply(400, "bad_request", {
                "error": "payload needs an integer 'true_result'"
            })
        if not 0 <= row <= deployment.spec.n:
            return self.reply(400, "bad_request", {
                "error": f"true_result must lie in [0, {deployment.spec.n}]"
            })
        idem = payload.get("idem")
        if idem is not None and not (
            isinstance(idem, str) and 0 < len(idem) <= _MAX_IDEM
        ):
            return self.reply(400, "bad_request", {
                "error": "optional 'idem' must be a non-empty string of "
                f"at most {_MAX_IDEM} characters"
            })
        req.user, req.key, req.alpha = user, key, alpha
        req.deployment, req.row, req.idem = deployment, row, idem
        return None

    def _charge(self, req: _Request):
        """Breaker, book and replay, with the 429 and 503 refusals.

        An open WAL breaker refuses the charge ("reject") or charges the
        volatile book ("memory"); its half-open probe rides on request
        arrival. The atomic charge-or-reject is committed (journaled,
        for a durable book) before the draw, so a crash can only
        over-protect.
        """
        breaker = self.breaker
        if breaker.open:
            if breaker.should_probe():
                self._recover_wal()
            if breaker.open and breaker.policy == "reject":
                return self.reply(503, "breaker_rejected", {
                    "error": "privacy WAL is unavailable and the failure "
                    "policy is reject-new-charges: no charge was made and "
                    "no statistic was released",
                    "breaker": "open",
                    "reason": breaker.reason,
                    "retry_after": round(breaker.retry_after(), 4),
                })
        user, alpha, idem = req.user, req.alpha, req.idem
        charge, label = self.ledgers.charge, f"serve:{req.key[:12]}"
        try:
            if req.trace is None:
                decision = charge(user, alpha, label=label, idem=idem)
            else:
                with span("ledger.charge", user=user):
                    decision = charge(user, alpha, label=label, idem=idem)
        except LedgerUnavailableError as err:
            self._trip_wal(str(err))
            if breaker.policy != "memory":
                return self.reply(503, "ledger_unavailable", {
                    "error": f"privacy ledger unavailable: {err}; the "
                    "charge was not recorded and no statistic was "
                    "released",
                    "retry_after": round(breaker.retry_after(), 4),
                })
            # _trip_wal made the book volatile (the floors it last
            # enforced keep binding); the charge retries in memory and
            # the response is marked "durability": "volatile".
            decision = charge(user, alpha, label=label, idem=idem)
        self._outcome_counts[decision.outcome] += 1
        if decision.outcome == "replayed":
            status, response = decision.replay
            return self.reply(status, None, dict(response))
        if decision.outcome == "rejected":
            return self.reply(429, None, {
                "error": f"release at alpha={alpha} would take user "
                f"{user!r} below the privacy floor {self.config.floor}",
                "user": user,
                "cumulative_alpha": str(decision.cumulative_alpha),
                "remaining_alpha": str(decision.remaining_alpha),
            })
        # "charged", or "pending": journaled but the response was lost,
        # so sampling a fresh one spends nothing extra.
        req.decision = decision
        return None

    async def _sample(self, req: _Request):
        """The batch submit: one row of the next fused gather."""
        try:
            req.value = await self.batcher.submit(
                req.deployment.index, req.row, trace=req.trace
            )
        except LedgerUnavailableError as err:
            # The batch's group-commit fsync failed under the reject
            # policy: the charge may be on disk but cannot be proven
            # durable, so the response is withheld. Over-protects the
            # user's budget; never under.
            return self.reply(503, "ledger_unavailable", {
                "error": f"durability lost mid-batch: {err}; the response "
                "is withheld (the charge, if journaled, only "
                "over-protects)",
                "retry_after": round(self.breaker.retry_after(), 4),
            })
        except Exception as err:  # the gather is pure numpy; be loud
            return self.reply(500, "errors", {
                "error": f"sampling failed: {err}"
            })
        return None

    def _respond(self, req: _Request) -> tuple[int, dict]:
        """The 200 body and the idempotency record; ``published`` counts
        only once the body exists."""
        deployment = req.deployment
        response = {
            "value": req.value,
            "user": req.user,
            "n": deployment.spec.n,
            "alpha": str(req.alpha),
            "key": req.key[:12],
            "cumulative_alpha": str(req.decision.cumulative_alpha),
        }
        # Deferred: one list append here, bucketed at scrape time.
        latency = deployment.latency
        pending = latency.pending
        pending.append(time.perf_counter() - req.t0)
        if len(pending) >= FOLD_CAP:
            latency.fold()
        if req.degraded_from is not None:
            response["degraded"] = "geometric"
            response["requested_key"] = req.degraded_from[:12]
            self._counts["degraded"] += 1
        if self.breaker.open and self.breaker.policy == "memory":
            # The alarm of memory-mode-with-alarm: every volatile
            # release says so — a durability downgrade is never silent.
            response["durability"] = "volatile"
        if req.idem is not None:
            # Best-effort replay journal: losing it downgrades a retry
            # from "replayed" to "pending" (re-sample, never re-charge).
            with contextlib.suppress(LedgerUnavailableError):
                self.ledgers.record_result(req.idem, 200, response)
        answer = self.reply(200, "published", response)
        self.faults.crash("server.before-response")
        return answer

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
            # Bypasses trace sampling — a durability outage is always
            # worth a record.
            self.telemetry.tracer.event(
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
        self.telemetry.tracer.event("wal.breaker-recovered")

    # -- readiness ------------------------------------------------------
    def readiness(self) -> tuple[bool, list[str]]:
        """May this worker take *new* traffic (``/healthz`` answers
        "alive")? Ready means artifacts are loaded, the server is not
        draining, and the WAL is writable. A memory-mode outage is
        not-ready: clients already here get volatile responses, but a
        fleet should route fresh traffic elsewhere.
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
        """Route one request: the entry point of every transport.

        ``headers`` (lower-cased names) only matter to ``GET /metrics``,
        which serves the Prometheus text exposition when the Accept
        header asks for text/openmetrics (or the query string says
        ``format=prometheus``), as ``{"__raw__": text,
        "__content_type__": ...}`` — the HTTP edge writes it verbatim.
        """
        if method == "POST" and path == "/publish":
            return await self.publish(payload or {})
        path, _, query = path.partition("?")
        params = _parse_query(query)
        if method != "GET":
            return 405, {"error": f"method {method} not allowed"}
        if path.startswith("/ledger/"):
            status, response = self._get_ledger(path[len("/ledger/"):])
        else:
            view = self._GET_VIEWS.get(path)
            if view is None:
                status, response = 404, {"error": f"no route for GET {path}"}
            else:
                status, response = view(self, params, headers)
        route = path.split("/", 2)[1] if path.startswith("/") else path
        self.telemetry.requests.labels(route or "root", str(status)).inc()
        return status, response

    # -- the GET views ---------------------------------------------------
    def _get_healthz(self, params, headers):
        breaker = self.breaker
        health = {
            "status": "ok",
            "deployments": len(self._deployments),
            "quarantined": len(self._quarantined),
            "draining": self._draining,
            # Ledger/WAL health: journal bytes, seq, last-fsync latency,
            # compaction count for a durable book.
            "ledger": self.ledgers.stats(),
            "breaker": breaker.snapshot(),
            "durability": (
                "volatile"
                if breaker.open and breaker.policy == "memory"
                else "durable"
                if getattr(self.ledgers, "durable", False)
                else "memory"
            ),
            "degraded_mode": self.config.degraded,
        }
        if self.config.worker_id is not None:
            health["worker"] = self.config.worker_id
        if self.admission is not None:
            health["admission"] = self.admission.snapshot()
        return 200, health

    def _get_readyz(self, params, headers):
        # Readiness gates *new* traffic; /healthz answers "alive".
        ready, reasons = self.readiness()
        body: dict = {"ready": ready}
        if reasons:
            body["reasons"] = reasons
        if self.config.worker_id is not None:
            body["worker"] = self.config.worker_id
        return (200 if ready else 503), body

    def _get_artifacts(self, params, headers):
        return 200, {
            "artifacts": [
                {
                    "kind": d.spec.kind,
                    "n": d.spec.n,
                    "alpha": str(d.spec.alpha),
                    "loss": d.spec.loss,
                    "side": None if d.spec.side is None else list(d.spec.side),
                    "key": d.spec.key()[:12],
                    "verified": (
                        d.verification is not None and d.verification.ok
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
                    # The geometric fallback serving in its place.
                    "degraded_to": (
                        None
                        if q.get("fallback_key") is None
                        else q["fallback_key"][:12]
                    ),
                }
                for key, q in self._quarantined.items()
            ],
        }

    def _get_metrics(self, params, headers):
        accept = (headers or {}).get("accept", "")
        if params.get("format") == "prometheus" or any(
            kind in accept for kind in _PROM_ACCEPT
        ):
            # The solver layer reports into the process-default
            # registry: one scrape covers the whole stack.
            text = (
                self.telemetry.registry.render() + default_registry().render()
            )
            return 200, {
                "__raw__": text,
                "__content_type__": _PROM_CONTENT_TYPE,
            }
        auditor = self.auditor
        return 200, {
            "metrics": self.metrics,
            "batcher": self.batcher.stats,
            "admission": self.admission and self.admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "audit": {
                "rate": auditor.rate,
                "samples": auditor.samples,
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
                    for f in auditor.last_findings
                ],
            },
            "ledger": self.ledgers.stats(),
            "users": self.ledgers.users(),
        }

    def _get_ledger(self, user: str):
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

    def _get_trace_recent(self, params, headers):
        limit = _limit(params, 100)
        if limit is None:
            return 400, {"error": _BAD_LIMIT}
        tracer = self.telemetry.tracer
        spans = tracer.recent(
            limit, name=params.get("name"), trace=params.get("trace")
        )
        return 200, {"spans": spans, "emitted": tracer.emitted}

    def _get_burn(self, params, headers):
        limit = _limit(params, 50)
        if limit is None:
            return 400, {"error": _BAD_LIMIT}
        rows = burn_rows_from_book(self.ledgers)
        return 200, {
            "users": len(rows),
            "floor_proximity": floor_proximity(rows),
            "rows": [row.to_dict() for row in rows[:limit]],
        }

    _GET_VIEWS = {
        "/healthz": _get_healthz,
        "/readyz": _get_readyz,
        "/artifacts": _get_artifacts,
        "/metrics": _get_metrics,
        "/trace/recent": _get_trace_recent,
        "/obs/burn": _get_burn,
    }

    # -- entry points ---------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0, *, sock=None
    ) -> None:
        """Bind the HTTP listener (``port=0`` picks an ephemeral port).

        ``sock`` serves on an existing bound-and-listening socket
        instead — the supervisor path, where every worker in the fleet
        inherits the same ``SO_REUSEPORT`` listener so the kernel
        load-balances accepts across them. Connections are served by
        :func:`repro.serving.edge.serve_connection`.
        """
        if self._http_server is not None:
            raise ReproError("server is already started")
        handler = functools.partial(serve_connection, self)
        if sock is not None:
            self._http_server = await asyncio.start_server(handler, sock=sock)
        else:
            self._http_server = await asyncio.start_server(
                handler, host, port
            )

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._http_server is None:
            raise ReproError("server is not started")
        return self._http_server.sockets[0].getsockname()[1]

    async def stop(self, *, drain_deadline: float | None = None) -> None:
        """Graceful drain: stop accepting, finish in-flight work, flush
        the batcher, fsync and close the ledger. Idempotent.

        In-flight handlers get ``drain_deadline`` seconds (the configured
        one when ``None``); stragglers, typically idle keep-alive
        connections, are then cancelled. A book left volatile by a WAL
        outage gets one recovery probe first; if the WAL is still down,
        stderr warns how many users' outage charges stay unjournaled.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        deadline = (
            self.config.drain_deadline
            if drain_deadline is None
            else drain_deadline
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
        self.telemetry.close()  # drains the span log

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
