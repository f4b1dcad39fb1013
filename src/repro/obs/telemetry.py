"""The telemetry bundle of one serving process.

One :class:`Telemetry` holds a server's metrics registry and tracer, plus
the instrument families its scrape-time collector fills. Every
:class:`~repro.serving.server.MechanismServer` builds one; there is no
telemetry-off mode. The layers under the server (batcher, budget book,
admission, auditor) hold no handle on it: they keep their counts and
timings in their own ``stats`` and latency logs, open spans through the
active trace context (:func:`repro.obs.tracing.span`), and the server's
collector exposes what they kept, once per scrape. The solver layer
writes to :func:`repro.obs.metrics.default_registry`, which the server
appends to its scrape so one ``GET /metrics`` covers the whole stack.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """A private metrics registry + tracer, with the serving families.

    ``trace_rate`` / ``trace_dir`` / ``trace_ring`` / ``trace_seed`` are
    forwarded to :class:`Tracer`.
    """

    def __init__(
        self,
        *,
        trace_rate: float = 0.0,
        trace_dir=None,
        trace_ring: int = 1024,
        trace_seed: int | None = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            trace_rate, trace_dir, ring=trace_ring, seed=trace_seed
        )
        reg = self.registry
        # Created here so every family appears in the exposition from
        # the first scrape.
        self.requests = reg.counter(
            "repro_requests_total",
            "Requests handled, by route and response status.",
            labels=("route", "status"),
        )
        self.publish_latency = reg.histogram(
            "repro_publish_latency_seconds",
            "End-to-end publish latency, by deployment spec key.",
            labels=("key",),
        )
        self.ledger_outcomes = reg.counter(
            "repro_ledger_charges_total",
            "Ledger charge decisions, by outcome.",
            labels=("outcome",),
        )
        self.batch_flushes = reg.counter(
            "repro_batch_flushes_total",
            "Micro-batch flushes, by reason.",
            labels=("reason",),
        )
        self.batch_size = reg.histogram(
            "repro_batch_size",
            "Rows fused per micro-batch flush.",
            buckets=tuple(float(1 << i) for i in range(15)),
        )
        self.batch_flush_latency = reg.histogram(
            "repro_batch_flush_seconds",
            "Wall time of one micro-batch execute (gather + fsync).",
        )
        self.gather_latency = reg.histogram(
            "repro_sampler_gather_seconds",
            "Fused alias-table gather time per batch.",
        )
        self.wal_append_latency = reg.histogram(
            "repro_wal_append_seconds",
            "WAL record append time (excluding fsync).",
        )
        self.wal_fsync_latency = reg.histogram(
            "repro_wal_fsync_seconds",
            "WAL fsync time, by fsync mode.",
            labels=("mode",),
        )
        self.wal_journal_bytes = reg.gauge(
            "repro_wal_journal_bytes",
            "Current size of the write-ahead journal in bytes.",
        )
        self.ledger_compactions = reg.counter(
            "repro_ledger_compactions_total",
            "Snapshot-and-truncate compactions of the WAL.",
        )
        self.audit_findings = reg.counter(
            "repro_audit_findings_total",
            "Online audit sweep findings, by flagged verdict.",
            labels=("flagged",),
        )
        self.users_near_floor = reg.gauge(
            "repro_budget_users_near_floor",
            "Users within k further charges of their privacy floor.",
            labels=("within",),
        )
        self.user_spent_fraction = reg.gauge(
            "repro_user_spent_fraction",
            "Epsilon-fraction of budget spent, top burners by user.",
            labels=("user",),
        )
        self.deployment_epsilon = reg.gauge(
            "repro_deployment_epsilon_spent",
            "Total epsilon charged through a deployment "
            "(charges * -ln(alpha)), by spec key.",
            labels=("key",),
        )
        # Fleet / overload protection (PR 10). Sheds happen before any
        # ledger charge; the breaker gauges make a durability outage
        # impossible to miss; the degraded pair exposes how much traffic
        # rides the certified geometric fallback.
        self.sheds = reg.counter(
            "repro_serving_shed_total",
            "Requests shed before any ledger charge, by reason.",
            labels=("reason",),
        )
        self.admission_inflight = reg.gauge(
            "repro_serving_admission_inflight",
            "Admitted publishes currently in flight.",
        )
        self.admission_brownout = reg.gauge(
            "repro_serving_brownout_active",
            "1 while sustained overload is shedding optional work.",
        )
        self.brownout_skips = reg.counter(
            "repro_serving_brownout_skips_total",
            "Optional work skipped under brownout, by kind.",
            labels=("kind",),
        )
        self.breaker_state = reg.gauge(
            "repro_wal_breaker_open",
            "1 while the WAL circuit breaker is open (charges follow "
            "the configured failure policy).",
        )
        self.breaker_trips = reg.counter(
            "repro_wal_breaker_trips_total",
            "WAL circuit breaker transitions, by kind (open/recover).",
            labels=("kind",),
        )
        self.degraded_deployments = reg.gauge(
            "repro_serving_degraded_deployments",
            "Quarantined deployments currently served by the geometric "
            "fallback.",
        )
        self.degraded_responses = reg.counter(
            "repro_serving_degraded_responses_total",
            "Responses served by a geometric fallback for a "
            "quarantined bespoke deployment.",
        )
        self.worker_ready = reg.gauge(
            "repro_serving_worker_ready",
            "1 while this worker passes its own readiness checks.",
        )

    def close(self) -> None:
        self.tracer.close()
