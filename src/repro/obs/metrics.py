"""Metrics primitives and the Prometheus text exposition.

The serving stack (and the solver layer underneath it) records three
kinds of facts:

* :class:`Counter` — monotone event counts (requests by route/status,
  ledger charge outcomes, solve-cache hits/misses, batch flush reasons);
* :class:`Gauge` — point-in-time levels (journal bytes, users within
  ``k`` charges of their privacy floor, per-user spent fraction);
* :class:`Histogram` — log-bucketed distributions (publish latency per
  deployment, WAL fsync latency, fused-gather duration) with p50/p99
  extraction directly from the buckets.

All three support Prometheus-style labels. A
:class:`MetricsRegistry` owns families, renders the standard text
exposition format (``GET /metrics`` content-negotiates it), and
snapshots to plain dicts for benchmarks and the JSON metrics route.

Design constraints, in order:

1. **Hot-path cost.** Telemetry is always on, so the per-event work is
   a plain tally or one list append in the layer that does the work
   (:class:`LatencyLog`); the scrape-time collector moves those into
   the families. A counter increment is ``self.value += v``; a
   histogram observation is one C ``bisect`` plus three attribute
   updates. Label resolution (``labels(...)``) is the expensive step
   and is done per scrape, never per request.
2. **Concurrent scrapes.** Increments come from the event loop and from
   worker threads; scrapes may run concurrently. Individual updates are
   safe under the GIL, and rendering materializes each family's children
   with ``list(...)`` so a scrape never observes a dict mutated
   mid-iteration. Cumulative histogram buckets are computed at render
   time, so bucket monotonicity holds in every scrape by construction.
3. **Stdlib only.** No prometheus_client; the exposition is ~40 lines.

A process-wide default registry (:func:`default_registry`) is what the
solver-layer instrumentation (solve cache, hybrid certification,
artifact store) writes to, so one scrape of a serving process covers
the whole stack. Tests and benchmarks build private registries.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right

from ..exceptions import ValidationError

__all__ = [
    "Counter",
    "FOLD_CAP",
    "Gauge",
    "Histogram",
    "LatencyLog",
    "MetricsRegistry",
    "default_latency_buckets",
    "default_registry",
    "set_default_registry",
    "render_prometheus",
]

#: Growth factor of the default log-spaced latency buckets. The
#: histogram quantile is exact up to one bucket: the reported value is
#: the upper bound of the bucket holding the rank, so it overestimates
#: the order statistic by at most this factor (asserted against a
#: sorted-array p99 in ``bench_observability.py``).
LATENCY_BUCKET_GROWTH = 2.0


def default_latency_buckets() -> tuple:
    """Log-spaced seconds from 1 microsecond to ~8 seconds (x2 steps)."""
    return tuple(1e-6 * (2.0 ** i) for i in range(24))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _ScalarChild:
    """One labeled time series of a counter or gauge."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount=1.0) -> None:
        self.value += amount

    def set(self, value) -> None:
        self.value = float(value)


class _HistogramChild:
    """One labeled histogram series: bucket counts, sum, and count.

    ``bounds`` holds the finite upper bounds; ``counts`` has one extra
    slot for the implicit ``+Inf`` bucket. Buckets are **not** stored
    cumulatively — the render/quantile paths accumulate on read — so an
    observation is a single increment.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values) -> None:
        """Fold a batch of observations in one pass.

        The deferred-tally path: hot loops park raw samples in a plain
        list (one C-level append per event) and fold them here at
        scrape time — sort once, then one ``bisect_right`` per bucket
        bound instead of one ``bisect_left`` per sample. Identical
        bucketing to :meth:`observe`: a value equal to a bound lands in
        that bound's bucket either way.
        """
        ordered = sorted(values)
        if not ordered:
            return
        counts = self.counts
        previous = 0
        for index, bound in enumerate(self.bounds):
            position = bisect_right(ordered, bound)
            if position != previous:
                counts[index] += position - previous
                previous = position
        size = len(ordered)
        counts[len(self.bounds)] += size - previous
        self.sum += math.fsum(ordered)
        self.count += size

    def quantile(self, q: float):
        """The upper bound of the bucket containing the ``q`` quantile.

        Exact extraction from the buckets: the returned value is a true
        upper bound for the order statistic at rank ``ceil(q * count)``
        and exceeds it by at most one bucket's width (the log growth
        factor for the default bounds). ``None`` when empty; ``inf``
        when the rank lands in the overflow bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return None
        rank = max(1, math.ceil(q * total))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return math.inf
        return math.inf  # pragma: no cover - seen always reaches total


#: A :class:`LatencyLog` folds its parked durations at this many (and at
#: every scrape), so a log nobody scrapes stays bounded. A server keeps
#: one log per deployment and per timed layer, so the cap is per log:
#: four deployments and the WAL append park at most ~2.6 MB.
FOLD_CAP = 16384


class LatencyLog:
    """Durations a hot path parks raw, bucketed only when read.

    The layer that does the timed work owns the log: one C-level list
    append per event (``log.pending.append(seconds)``, or :meth:`add`),
    and :meth:`fold` buckets the batch into :attr:`child` — a histogram
    series the scrape-time collector exposes with
    :meth:`Histogram.attach`.
    """

    __slots__ = ("pending", "child")

    def __init__(self) -> None:
        self.pending: list = []
        self.child = _HistogramChild(default_latency_buckets())

    def add(self, seconds: float) -> None:
        pending = self.pending
        pending.append(seconds)
        if len(pending) >= FOLD_CAP:
            self.fold()

    def fold(self) -> _HistogramChild:
        """Bucket the parked durations; returns the series."""
        pending = self.pending
        if pending:
            self.pending = []
            self.child.observe_many(pending)
        return self.child


class _Family:
    """A named metric family holding one child per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: tuple) -> None:
        _check_name(name)
        for label in labels:
            _check_name(label)
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._children: dict = {}
        self._lock = threading.Lock()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values, **kwargs):
        """The child series for these label values (created on demand).

        Accepts positional values in ``label_names`` order or keyword
        arguments. Callers on hot paths cache the returned child.
        """
        if kwargs:
            if values:
                raise ValidationError(
                    "pass label values positionally or by keyword, not both"
                )
            try:
                values = tuple(str(kwargs[k]) for k in self.label_names)
            except KeyError as err:
                raise ValidationError(
                    f"metric {self.name} is missing label {err}"
                ) from None
            if len(kwargs) != len(self.label_names):
                raise ValidationError(
                    f"metric {self.name} takes labels {self.label_names}, "
                    f"got {tuple(kwargs)}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValidationError(
                f"metric {self.name} takes {len(self.label_names)} label "
                f"value(s) {self.label_names}, got {len(values)}"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    child = self._children[values] = self._new_child()
        return child

    def children(self) -> list:
        """A stable list of ``(label_values, child)`` pairs."""
        return list(self._children.items())

    def _bare(self):
        """The unlabeled child (only for families with no labels)."""
        return self.labels()


class Counter(_Family):
    """A monotonically increasing count (optionally labeled)."""

    kind = "counter"

    def _new_child(self) -> _ScalarChild:
        return _ScalarChild()

    def inc(self, amount=1.0) -> None:
        self._bare().inc(amount)

    @property
    def value(self):
        return self._bare().value


class Gauge(_Family):
    """A value that can go up and down (optionally labeled)."""

    kind = "gauge"

    def _new_child(self) -> _ScalarChild:
        return _ScalarChild()

    def set(self, value) -> None:
        self._bare().set(value)

    def inc(self, amount=1.0) -> None:
        self._bare().inc(amount)

    @property
    def value(self):
        return self._bare().value


class Histogram(_Family):
    """A log-bucketed distribution with quantile extraction."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, labels: tuple, buckets=None
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(
            default_latency_buckets() if buckets is None else buckets
        )
        if not bounds:
            raise ValidationError(f"histogram {name} needs >= 1 bucket")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.bounds = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value) -> None:
        self._bare().observe(value)

    def observe_many(self, values) -> None:
        self._bare().observe_many(values)

    def attach(self, child: _HistogramChild, *values: str) -> None:
        """Expose a series its owner keeps, such as a
        :class:`LatencyLog`'s, under these label values."""
        self._children[values] = child

    def quantile(self, q: float):
        return self._bare().quantile(q)

    @property
    def count(self):
        return self._bare().count


_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_VALID_REST = _VALID_FIRST | set("0123456789")


def _check_name(name: str) -> None:
    if (
        not name
        or name[0] not in _VALID_FIRST
        or any(c not in _VALID_REST for c in name[1:])
    ):
        raise ValidationError(
            f"invalid metric/label name {name!r} (must match "
            "[a-zA-Z_:][a-zA-Z0-9_:]*)"
        )


class MetricsRegistry:
    """Owns metric families; renders and snapshots them.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing family (and validates that the
    kind and labels agree), so independent modules can share series.

    ``register_collector`` adds a zero-argument callback run before
    every render/snapshot — the hook the serving layer uses to refresh
    scrape-time gauges (budget burn rates are computed from the ledger
    on demand rather than updated on the request hot path).
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list = []
        self._lock = threading.Lock()

    # -- family construction -------------------------------------------
    def _family(self, cls, name, help, labels, **kwargs) -> _Family:
        labels = tuple(labels)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValidationError(
                        f"metric {name} is already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.label_names != labels:
                    raise ValidationError(
                        f"metric {name} is already registered with labels "
                        f"{existing.label_names}, not {labels}"
                    )
                return existing
            family = cls(name, help, labels, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels=()) -> Counter:
        return self._family(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels=()) -> Gauge:
        return self._family(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels=(), buckets=None
    ) -> Histogram:
        return self._family(
            Histogram, name, help, labels, buckets=buckets
        )

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    def register_collector(self, callback) -> None:
        self._collectors.append(callback)

    def _collect(self) -> None:
        for callback in list(self._collectors):
            callback()

    def families(self) -> list:
        return list(self._families.values())

    # -- output --------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        self._collect()
        return render_prometheus(self.families())

    def snapshot(self) -> dict:
        """A plain-dict snapshot (for benches and the JSON route).

        Counters/gauges map label tuples (joined with ``,``) to values;
        histograms additionally expose count/sum/p50/p99.
        """
        self._collect()
        out: dict = {}
        for family in self.families():
            series: dict = {}
            for values, child in family.children():
                key = ",".join(values) if values else ""
                if family.kind == "histogram":
                    series[key] = {
                        "count": child.count,
                        "sum": child.sum,
                        "p50": child.quantile(0.5),
                        "p99": child.quantile(0.99),
                    }
                else:
                    series[key] = child.value
            out[family.name] = {
                "kind": family.kind,
                "labels": list(family.label_names),
                "series": series,
            }
        return out


def _series_name(name, label_names, label_values, extra=()) -> str:
    pairs = [
        f'{label}="{_escape_label(value)}"'
        for label, value in zip(label_names, label_values)
    ]
    pairs.extend(f'{label}="{value}"' for label, value in extra)
    if not pairs:
        return name
    return f"{name}{{{','.join(pairs)}}}"


def render_prometheus(families) -> str:
    """Render metric families to the Prometheus text format."""
    lines: list[str] = []
    for family in families:
        children = family.children()
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if family.kind == "histogram":
            for values, child in children:
                # Cumulative buckets computed on read: a concurrent
                # observation can only make later buckets larger, never
                # break monotonicity within one rendered series.
                counts = list(child.counts)
                running = 0
                for bound, bucket_count in zip(child.bounds, counts):
                    running += bucket_count
                    lines.append(
                        _series_name(
                            f"{family.name}_bucket",
                            family.label_names,
                            values,
                            extra=(("le", _format_value(float(bound))),),
                        )
                        + f" {running}"
                    )
                running += counts[-1]
                lines.append(
                    _series_name(
                        f"{family.name}_bucket",
                        family.label_names,
                        values,
                        extra=(("le", "+Inf"),),
                    )
                    + f" {running}"
                )
                lines.append(
                    _series_name(
                        f"{family.name}_sum", family.label_names, values
                    )
                    + f" {_format_value(child.sum)}"
                )
                lines.append(
                    _series_name(
                        f"{family.name}_count", family.label_names, values
                    )
                    + f" {running}"
                )
        else:
            for values, child in children:
                lines.append(
                    _series_name(family.name, family.label_names, values)
                    + f" {_format_value(child.value)}"
                )
    return "\n".join(lines) + "\n"


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry the solver layer instruments against."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry; returns the previous one.

    Test isolation hook: solver-layer counters (solve cache, artifact
    store, hybrid certification) always write to the default registry,
    so a test that asserts exact values installs a fresh one.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
