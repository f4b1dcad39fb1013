"""Observability for the serving stack: metrics, tracing, budget burn.

Stdlib-only. Three layers, importable independently:

* :mod:`repro.obs.metrics` — counters/gauges/log-bucketed histograms
  with labels, Prometheus text exposition, in-process snapshots;
* :mod:`repro.obs.tracing` — sampled request tracing with
  ContextVar propagation (including micro-batch broadcast), a JSONL
  event log, and an in-memory ring for ``GET /trace/recent``;
* :mod:`repro.obs.budget` — per-user burn-rate rows (spent fraction,
  exact remaining charges) from live books or WAL directories.

:class:`~repro.obs.telemetry.Telemetry` bundles the first two with the
serving families; every server builds one, and the layers under it
reach it only through the active trace context and the server's
scrape-time collector.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    render_prometheus,
    set_default_registry,
)
from .tracing import Tracer, TraceContext
from .telemetry import Telemetry
from .budget import (
    BurnRow,
    burn_rows_from_book,
    burn_rows_from_dir,
    floor_proximity,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
    "render_prometheus",
    "Tracer",
    "TraceContext",
    "Telemetry",
    "BurnRow",
    "burn_rows_from_book",
    "burn_rows_from_dir",
    "floor_proximity",
]
