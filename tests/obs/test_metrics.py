"""Tests for the metrics primitives and the Prometheus exposition.

Includes a minimal Prometheus text-format parser used to validate every
rendered family: its TYPE line, label escaping, and — for histograms —
bucket monotonicity ending at ``+Inf`` with ``_count`` agreement.
"""

import math
import re
import threading

import pytest

from repro.exceptions import ValidationError
from repro.obs.metrics import (
    FOLD_CAP,
    Counter,
    Gauge,
    Histogram,
    LatencyLog,
    MetricsRegistry,
    default_latency_buckets,
    default_registry,
    render_prometheus,
    set_default_registry,
)

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? "
    r"(?P<value>[^ ]+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus(text: str) -> dict:
    """A minimal parser of the text exposition format (version 0.0.4).

    Returns ``{family: {"type": str, "samples": [(name, labels, value)]}}``
    where samples attach to the family whose name prefixes theirs
    (histogram ``_bucket``/``_sum``/``_count`` samples attach to the
    histogram family).
    """
    families: dict = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            families[name] = {"type": kind, "samples": []}
            current = name
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name = match.group("name")
        labels = {}
        if match.group("labels"):
            consumed = _LABEL.sub("", match.group("labels"))
            assert set(consumed) <= {","}, (
                f"bad label syntax in {line!r}"
            )
            for key, value in _LABEL.findall(match.group("labels")):
                labels[key] = _unescape(value)
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        elif value_text == "NaN":
            value = math.nan
        else:
            value = float(value_text)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
        assert family == current, (
            f"sample {name} outside its family block ({current})"
        )
        families[family]["samples"].append((name, labels, value))
    return families


def assert_valid_exposition(text: str) -> dict:
    """Every family has a TYPE line; histograms have sane buckets."""
    assert text.endswith("\n")
    families = parse_prometheus(text)
    for name, family in families.items():
        assert family["type"] in ("counter", "gauge", "histogram"), name
        if family["type"] != "histogram":
            continue
        # Group bucket samples per label set (minus ``le``).
        series: dict = {}
        for sample, labels, value in family["samples"]:
            key = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            entry = series.setdefault(
                key, {"buckets": [], "sum": None, "count": None}
            )
            if sample == f"{name}_bucket":
                le = labels["le"]
                entry["buckets"].append(
                    (math.inf if le == "+Inf" else float(le), value)
                )
            elif sample == f"{name}_sum":
                entry["sum"] = value
            elif sample == f"{name}_count":
                entry["count"] = value
        for key, entry in series.items():
            buckets = entry["buckets"]
            assert buckets, (name, key)
            bounds = [b for b, _ in buckets]
            counts = [c for _, c in buckets]
            assert bounds == sorted(bounds), (name, key)
            assert bounds[-1] == math.inf, (name, key)
            assert counts == sorted(counts), (
                f"{name}{key}: cumulative buckets must be monotone"
            )
            assert entry["count"] == counts[-1], (name, key)
            assert entry["sum"] is not None, (name, key)
    return families


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter("events_total", "Events.", ())
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_labeled_children_are_independent_and_cached(self):
        counter = Counter("hits_total", "", ("route",))
        counter.labels("a").inc()
        counter.labels("a").inc()
        counter.labels("b").inc()
        assert counter.labels("a").value == 2
        assert counter.labels("b").value == 1
        assert counter.labels("a") is counter.labels("a")
        assert counter.labels(route="a") is counter.labels("a")

    def test_label_arity_and_keywords_validated(self):
        counter = Counter("hits_total", "", ("route", "status"))
        with pytest.raises(ValidationError, match="label"):
            counter.labels("only-one")
        with pytest.raises(ValidationError, match="missing label"):
            counter.labels(route="a")
        with pytest.raises(ValidationError, match="not both"):
            counter.labels("a", status="b")

    def test_gauge_set_and_inc(self):
        gauge = Gauge("level", "", ())
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5.0

    def test_invalid_names_rejected(self):
        for bad in ("", "2fast", "dash-ed", "sp ace"):
            with pytest.raises(ValidationError, match="invalid metric"):
                Counter(bad, "", ())
        with pytest.raises(ValidationError, match="invalid metric"):
            Counter("fine", "", ("bad-label",))


class TestHistogram:
    def test_quantiles_upper_bound_within_one_bucket(self):
        histogram = Histogram("lat", "", (), buckets=None)
        values = [1e-6 * (1.08 ** i) for i in range(200)]
        for value in values:
            histogram.observe(value)
        exact = sorted(values)[max(0, math.ceil(0.99 * len(values)) - 1)]
        p99 = histogram.quantile(0.99)
        assert exact <= p99 <= exact * 2.0  # LATENCY_BUCKET_GROWTH

    def test_quantile_edge_cases(self):
        histogram = Histogram("lat", "", (), buckets=(1.0, 2.0))
        assert histogram.quantile(0.5) is None  # empty
        histogram.observe(0.5)
        assert histogram.quantile(0.0) == 1.0
        histogram.observe(99.0)  # overflow bucket
        assert histogram.quantile(1.0) == math.inf
        with pytest.raises(ValidationError, match="quantile"):
            histogram.quantile(1.5)

    def test_buckets_must_increase(self):
        with pytest.raises(ValidationError, match="increasing"):
            Histogram("lat", "", (), buckets=(1.0, 1.0))
        with pytest.raises(ValidationError, match="bucket"):
            Histogram("lat", "", (), buckets=())

    def test_default_buckets_span_micro_to_seconds(self):
        bounds = default_latency_buckets()
        assert bounds[0] == 1e-6
        assert bounds[-1] > 8.0
        assert all(b < c for b, c in zip(bounds, bounds[1:]))


class TestLatencyLog:
    def test_folds_at_the_cap_so_an_unread_log_stays_bounded(self):
        log = LatencyLog()
        for _ in range(FOLD_CAP + 3):
            log.add(1e-3)
        assert len(log.pending) == 3
        assert log.child.count == FOLD_CAP
        assert log.fold().count == FOLD_CAP + 3 and not log.pending

    def test_an_attached_series_renders_under_its_labels(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat_seconds", "", labels=("mode",))
        log = LatencyLog()
        log.pending.extend([1e-6, 3e-6])
        family.attach(log.fold(), "group")
        text = registry.render()
        assert 'lat_seconds_count{mode="group"} 2' in text
        assert 'lat_seconds_bucket{mode="group",le="1e-06"} 1' in text

    def test_a_book_nobody_scrapes_stays_bounded(self, tmp_path, monkeypatch):
        import repro.release.durable_ledger as ledger_module

        monkeypatch.setattr(ledger_module, "FOLD_CAP", 4)
        book = ledger_module.DurableLedger(tmp_path, fsync="always")
        for i in range(10):
            book.charge(f"u{i}", 0.5)
        book.close()
        assert len(book.append_latency.pending) < 4
        assert book.append_latency.fold().count == 10
        assert book.fsync_latency.fold().count == 10


class TestRegistry:
    def test_families_are_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "help", labels=("x",))
        again = registry.counter("a_total", "other", labels=("x",))
        assert first is again

    def test_kind_and_label_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "", labels=("x",))
        with pytest.raises(ValidationError, match="counter"):
            registry.gauge("a_total")
        with pytest.raises(ValidationError, match="labels"):
            registry.counter("a_total", "", labels=("y",))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", labels=("k",)).labels("v").inc(3)
        registry.histogram("h", "", buckets=(1.0, 2.0)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c_total"]["series"]["v"] == 3
        h = snapshot["h"]["series"][""]
        assert h["count"] == 1 and h["p50"] == 1.0

    def test_collectors_run_at_scrape_time_only(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("level")
        calls = []
        registry.register_collector(lambda: (calls.append(1), gauge.set(len(calls)))[0])
        assert calls == []
        registry.render()
        registry.snapshot()
        assert len(calls) == 2
        assert gauge.value == 2.0

    def test_default_registry_swap_restores(self):
        mine = MetricsRegistry()
        previous = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(previous)
        assert default_registry() is previous


class TestExposition:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        requests = registry.counter(
            "demo_requests_total", "Requests.", labels=("route", "status")
        )
        requests.labels("publish", "200").inc(7)
        requests.labels("publish", "429").inc()
        registry.gauge("demo_level", "A level.").set(1.5)
        latency = registry.histogram(
            "demo_latency_seconds", "Latency.", labels=("key",)
        )
        for i in range(50):
            latency.labels("abc").observe(1e-5 * (i + 1))
        return registry

    def test_every_family_validates(self):
        families = assert_valid_exposition(self.make_registry().render())
        assert families["demo_requests_total"]["type"] == "counter"
        assert families["demo_level"]["type"] == "gauge"
        assert families["demo_latency_seconds"]["type"] == "histogram"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in families["demo_requests_total"][
                "samples"
            ]
        }
        assert samples[
            (
                "demo_requests_total",
                (("route", "publish"), ("status", "200")),
            )
        ] == 7

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        tricky = 'quo"te\\slash\nnewline'
        registry.counter("esc_total", "", labels=("who",)).labels(
            tricky
        ).inc()
        rendered = registry.render()
        assert '\\"' in rendered and "\\\\" in rendered and "\\n" in rendered
        families = parse_prometheus(rendered)
        ((_, labels, value),) = families["esc_total"]["samples"]
        assert labels["who"] == tricky
        assert value == 1

    def test_help_newline_escaped(self):
        rendered = render_prometheus(
            [Counter("c_total", "line one\nline two", ())]
        )
        assert "# HELP c_total line one\\nline two" in rendered

    def test_special_values_render(self):
        registry = MetricsRegistry()
        registry.gauge("g_inf").set(math.inf)
        registry.gauge("g_nan").set(math.nan)
        rendered = registry.render()
        assert "g_inf +Inf" in rendered
        assert "g_nan NaN" in rendered

    def test_concurrent_scrapes_stay_consistent(self):
        """Scrapes racing a writer always see a valid exposition."""
        registry = MetricsRegistry()
        counter = registry.counter("race_total", "", labels=("k",))
        latency = registry.histogram("race_seconds", "")
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                counter.labels(str(i % 7)).inc()
                latency.observe(1e-6 * (i % 100 + 1))
                i += 1

        def scraper():
            try:
                for _ in range(50):
                    assert_valid_exposition(registry.render())
            except Exception as err:  # pragma: no cover - failure path
                errors.append(err)

        writer_thread = threading.Thread(target=writer, daemon=True)
        scrapers = [threading.Thread(target=scraper) for _ in range(4)]
        writer_thread.start()
        for thread in scrapers:
            thread.start()
        for thread in scrapers:
            thread.join()
        stop.set()
        writer_thread.join(timeout=5)
        assert not errors
