"""Outside-in layer tracing: wrap each layer's public functions, keep the
spans in memory, write them out at the end, and fold them into a
per-layer table.

A span is ``(name, parent, request, t0, t1, size, link)``. ``parent`` is
the span that was open in the same task when the call began (``-1`` for
a root); ``request`` is the publish or scrape the span works for
(``-1`` for set-up and for batch-scoped work). ``MicroBatcher.flush``
always opens a *batch-scoped* root — it serves every request parked in
the batch, whichever task or timer happens to run it — and each
``batching.submit`` span links to the flush that served it, so the wait
(submit -> flush start) and the flush itself are attributed to each of
those requests once.

Nothing here changes what the wrapped functions do; a traced run differs
from an untraced one only by the wrappers' own cost, which the benchmark
reports as the tracing overhead.
"""

from __future__ import annotations

import contextvars
import functools
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .stats import supported_percentile

#: Span name -> the layer (module) it belongs to.
SPAN_LAYER = {
    "server.handle_request": "server",
    "server.handle_get": "server",
    "server.publish": "server",
    "overload.admit": "overload",
    "overload.release": "overload",
    "durable_ledger.open": "durable_ledger",
    "durable_ledger.charge": "durable_ledger",
    "durable_ledger.record_result": "durable_ledger",
    "durable_ledger.sync": "durable_ledger",
    "durable_ledger.view": "durable_ledger",
    "durable_ledger.fs_write": "durable_ledger",
    "durable_ledger.fs_fsync": "durable_ledger",
    "batching.submit": "batching",
    "batching.flush": "batching",
    "alias.gather": "alias",
    "audit.observe": "audit",
    "audit.sweep": "audit",
    "metrics.render": "metrics",
    "metrics.burn_walk": "metrics",
    "artifacts.load": "artifacts",
    "artifacts.verify": "artifacts",
}
NAMES = tuple(SPAN_LAYER)
_ID = {name: i for i, name in enumerate(NAMES)}

#: ``batching.submit`` spans cover time spent *waiting* for a flush, not
#: work; they are left out of the busy-time table.
WAITING = ("batching.submit",)

#: Flush reasons, stored in the flush span's ``link`` column.
FLUSH_REASONS = ("max_size", "deadline", "immediate", "manual", "close")

#: The predicted layer -> end-to-end mapping: per-layer metric -> the
#: (end-to-end metric, workload) pairs it should move. ``"none"`` marks a
#: workload on which the prediction is *no change*.
PREDICTIONS = {
    "batching.wait_us": [
        ("publish_p50_ms", "http-scrape-wal"),
        ("publish_qps", "http-scrape-wal"),
        ("none", "inproc-c1024-wal"),
    ],
    "batching.flush_us": [("publish_p95_ms", "inproc-c1024-wal")],
    "server.publish.self_us": [
        ("cpu_us_per_publish", "inproc-c1024-wal"),
        ("cpu_us_per_publish", "http-scrape-wal"),
    ],
    "server.http_overhead_us": [
        ("publish_p50_ms", "http-scrape-wal"),
        ("none", "inproc-c1024-wal"),
    ],
    "durable_ledger.charge.us": [
        ("cpu_us_per_publish", "inproc-c1024-wal"),
        ("publish_qps", "inproc-c1024-wal"),
    ],
    "durable_ledger.charge.charged_ratio": [
        ("publish_qps", "http-scrape-wal"),
    ],
    "durable_ledger.fs_write.us": [("cpu_us_per_publish", "inproc-c1024-wal")],
    "durable_ledger.compactions": [("cpu_us_per_publish", "inproc-c1024-wal")],
    "durable_ledger.journal_bytes_per_charge": [
        ("cpu_us_per_publish", "inproc-c1024-wal"),
    ],
    "durable_ledger.sync.us": [
        ("publish_p95_ms", "inproc-c1024-wal"),
        ("publish_p50_ms", "http-scrape-wal"),
    ],
    "durable_ledger.fs_fsync.us": [
        ("publish_p95_ms", "inproc-c1024-wal"),
        ("publish_p50_ms", "http-scrape-wal"),
    ],
    "durable_ledger.view.calls_per_scrape": [
        ("publish_p95_ms", "http-scrape-wal"),
        ("cpu_us_per_publish", "http-scrape-wal"),
    ],
    "durable_ledger.view.us": [
        ("publish_p95_ms", "http-scrape-wal"),
        ("cpu_us_per_publish", "http-scrape-wal"),
    ],
    "durable_ledger.open_s": [
        ("setup_s", "inproc-c1024-wal"),
        ("setup_s", "http-scrape-wal"),
    ],
    "alias.gather.us": [("cpu_us_per_publish", "inproc-c1024-wal")],
    "alias.gather.ns_per_query": [("cpu_us_per_publish", "inproc-c1024-wal")],
    "audit.observe.us": [("cpu_us_per_publish", "inproc-c1024-wal")],
    "audit.sweep.us": [("cpu_us_per_publish", "inproc-c1024-wal")],
    "overload.admit.us": [("cpu_us_per_publish", "inproc-c1024-wal")],
    "metrics.scrape.us": [
        ("publish_p95_ms", "http-scrape-wal"),
        ("cpu_us_per_publish", "http-scrape-wal"),
    ],
    "metrics.burn_walk.us": [
        ("publish_p95_ms", "http-scrape-wal"),
        ("cpu_us_per_publish", "http-scrape-wal"),
    ],
    "artifacts.load_s": [
        ("setup_s", "inproc-c1024-wal"),
        ("setup_s", "http-scrape-wal"),
    ],
    "artifacts.verify_s": [
        ("setup_s", "inproc-c1024-wal"),
        ("setup_s", "http-scrape-wal"),
    ],
}

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_MISSING = object()


class SpanLog:
    """Spans kept in memory as flat typed arrays (about 40 bytes each)."""

    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("q")
        self.request = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.size = array("q")
        self.link = array("q")
        self._requests = 0

    def __len__(self) -> int:
        return len(self.name)

    def new_request(self) -> int:
        self._requests += 1
        return self._requests - 1

    def open(self, name_id: int, parent: int, request: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(parent)
        self.request.append(request)
        self.size.append(0)
        self.link.append(-1)
        self.t1.append(float("nan"))
        self.t0.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.t1[index] = time.perf_counter()

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "link": np.frombuffer(self.link, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans out (``numpy.savez``; span names stored
        alongside so a reader needs no import of this module)."""
        np.savez(path, names=np.asarray(NAMES), **self.columns())


def load_spans(path) -> dict:
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        cols = {key: data[key] for key in data.files if key != "names"}
    # Re-map stored name ids onto this module's ids.
    remap = np.asarray([_ID.get(n, -1) for n in names], dtype=np.int8)
    cols["name"] = remap[cols["name"]]
    return cols


# -- the wrappers ----------------------------------------------------------

def _enter(log: SpanLog, name_id: int, *, root=False, new_request=False):
    current = _CURRENT.get()
    if current is None or root:
        parent, request = -1, -1
    else:
        parent, request = current
    if new_request and request < 0:
        request = log.new_request()
    index = log.open(name_id, parent, request)
    return index, _CURRENT.set((index, request))


def _nested_same(log: SpanLog, name_id: int) -> bool:
    current = _CURRENT.get()
    return current is not None and log.name[current[0]] == name_id


class Tracer:
    """Installs span-recording wrappers around each layer's public
    functions; :meth:`uninstall` restores the originals."""

    def __init__(self, log: SpanLog | None = None) -> None:
        self.log = log if log is not None else SpanLog()
        self._saved: list = []
        # Per-batcher submit spans not yet flushed, in submit order —
        # the same order ``MicroBatcher`` parks their queries.
        self._parked: dict[int, list[int]] = {}

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def _sync(self, owner, attr, name, *, root=False, size=None):
        original = getattr(owner, attr)
        log, name_id = self.log, _ID[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if _nested_same(log, name_id):
                return original(*args, **kwargs)
            index, token = _enter(log, name_id, root=root)
            try:
                result = original(*args, **kwargs)
                if size is not None:
                    log.size[index] = size(args, result)
                return result
            finally:
                _CURRENT.reset(token)
                log.close(index)

        self._patch(owner, attr, wrapper)

    def _async(self, owner, attr, name_of):
        """Wrap a request entry point: it opens a new request unless it
        runs inside one (``publish`` under ``handle_request``)."""
        original = getattr(owner, attr)
        log = self.log

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            index, token = _enter(log, _ID[name_of(args)],
                                  new_request=True)
            try:
                return await original(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                log.close(index)

        self._patch(owner, attr, wrapper)

    def install(self) -> "Tracer":
        from repro.release import artifacts as artifacts_mod
        from repro.release import durable_ledger as ledger_mod
        from repro.obs import metrics as metrics_mod
        from repro.sampling import alias as alias_mod
        from repro.serving import audit as audit_mod
        from repro.serving import batching as batching_mod
        from repro.serving import overload as overload_mod
        from repro.serving import server as server_mod

        server_cls = server_mod.MechanismServer
        self._async(
            server_cls, "handle_request",
            lambda args: "server.handle_request"
            if args[1] == "POST" else "server.handle_get",
        )
        self._async(server_cls, "publish", lambda args: "server.publish")
        self._install_batcher(batching_mod.MicroBatcher)
        admission = overload_mod.AdmissionController
        self._sync(admission, "try_admit", "overload.admit")
        self._sync(admission, "release", "overload.release")
        charged = (lambda args, result: int(result.outcome == "charged"))
        for book in (ledger_mod.MemoryLedgerBook, ledger_mod.DurableLedger):
            self._sync(book, "charge", "durable_ledger.charge", size=charged)
            self._sync(book, "record_result", "durable_ledger.record_result")
            self._sync(book, "sync", "durable_ledger.sync")
            self._sync(book, "view", "durable_ledger.view")
        self._sync(ledger_mod.DurableLedger, "__init__",
                   "durable_ledger.open", root=True)
        self._sync(ledger_mod.LedgerFS, "write", "durable_ledger.fs_write",
                   size=lambda args, result: len(args[2]))
        self._sync(ledger_mod.LedgerFS, "fsync", "durable_ledger.fs_fsync")
        self._sync(alias_mod.HeterogeneousAliasSampler, "sample",
                   "alias.gather", size=lambda args, result: len(args[2]))
        self._sync(audit_mod.OnlineAuditor, "observe", "audit.observe")
        self._sync(audit_mod.OnlineAuditor, "sweep", "audit.sweep")
        self._sync(metrics_mod.MetricsRegistry, "render", "metrics.render")
        # The server imported these two by name; wrap them where it
        # calls them.
        self._sync(server_mod, "burn_rows_from_book", "metrics.burn_walk")
        self._sync(server_mod, "verify_artifact", "artifacts.verify",
                   root=True)
        self._sync(artifacts_mod.ArtifactStore, "load_key", "artifacts.load",
                   root=True)
        return self

    def _install_batcher(self, batcher_cls) -> None:
        log, parked = self.log, self._parked
        submit_id, flush_id = _ID["batching.submit"], _ID["batching.flush"]
        original_submit = batcher_cls.submit
        original_flush = batcher_cls.flush

        @functools.wraps(original_submit)
        async def submit(self, *args, **kwargs):
            index, token = _enter(log, submit_id)
            # The original parks its query synchronously, before its
            # first await, so this list stays in step with the batch.
            parked.setdefault(id(self), []).append(index)
            try:
                return await original_submit(self, *args, **kwargs)
            finally:
                _CURRENT.reset(token)
                log.close(index)

        @functools.wraps(original_flush)
        def flush(self, reason="manual"):
            members = parked.pop(id(self), [])
            if not self.pending:
                return original_flush(self, reason)
            index, token = _enter(log, flush_id, root=True)
            log.size[index] = len(members)
            log.link[index] = FLUSH_REASONS.index(reason)
            for member in members:
                log.link[member] = index
            try:
                return original_flush(self, reason)
            finally:
                _CURRENT.reset(token)
                log.close(index)

        self._patch(batcher_cls, "submit", submit)
        self._patch(batcher_cls, "flush", flush)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- the fold ----------------------------------------------------------------

@dataclass
class Fold:
    """Per-span-name totals plus per-publish attributions."""

    calls: dict = field(default_factory=dict)
    total: dict = field(default_factory=dict)      # inclusive seconds
    self_total: dict = field(default_factory=dict)  # exclusive seconds
    durations: dict = field(default_factory=dict)   # inclusive, per call
    sizes: dict = field(default_factory=dict)       # summed size column
    publishes: int = 0
    # Per publish request (rows aligned): the blocking components.
    per_request: dict = field(default_factory=dict)
    flush_reasons: dict = field(default_factory=dict)
    scrape_durations: np.ndarray = field(
        default_factory=lambda: np.zeros(0)
    )
    views_in_scrapes: int = 0

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e6 * self.total.get(name, 0.0) / calls if calls else 0.0

    def p99_us(self, name: str) -> float:
        durations = self.durations.get(name)
        if durations is None or not len(durations):
            return 0.0
        value = supported_percentile(durations, 0.99)
        return 1e6 * float(durations.max() if value is None else value)


def fold(cols: dict, window: tuple | None = None) -> Fold:
    """Fold spans into per-name totals and per-publish attributions.

    * Self time: a span's duration minus the durations of its children
      (spans whose ``parent`` is it).
    * ``window`` ``(start, end)`` keeps spans that began inside it.
    * Each publish request gets its blocking components: its own
      request-scoped spans, plus — through its ``batching.submit`` link —
      the wait until its flush began, the flush's duration, and the
      resume delay after it. The flush blocks every request it serves,
      but its time enters the per-name totals once.
    """
    names, parent = cols["name"], cols["parent"]
    t0, t1 = cols["t0"], cols["t1"]
    request, size, link = cols["request"], cols["size"], cols["link"]
    count = len(names)
    closed = ~np.isnan(t1)
    duration = np.where(closed, t1 - t0, 0.0)
    child = np.zeros(count)
    has_parent = (parent >= 0) & closed
    np.add.at(child, parent[has_parent], duration[has_parent])
    self_time = duration - child
    keep = closed.copy()
    if window is not None:
        keep &= (t0 >= window[0]) & (t0 < window[1])

    result = Fold()
    for name, name_id in _ID.items():
        mask = keep & (names == name_id)
        calls = int(mask.sum())
        if not calls:
            continue
        result.calls[name] = calls
        result.total[name] = float(duration[mask].sum())
        result.self_total[name] = float(self_time[mask].sum())
        result.durations[name] = duration[mask]
        result.sizes[name] = int(size[mask].sum())

    flush_mask = keep & (names == _ID["batching.flush"])
    for code, reason in enumerate(FLUSH_REASONS):
        hits = int((flush_mask & (link == code)).sum())
        if hits:
            result.flush_reasons[reason] = hits

    # Scrapes: GET roots that rendered the registry.
    get_id, render_id = _ID["server.handle_get"], _ID["metrics.render"]
    get_spans = np.flatnonzero(keep & (names == get_id))
    rendered = set(request[(names == render_id) & closed].tolist())
    scrape_spans = [i for i in get_spans if int(request[i]) in rendered]
    scrape_requests = {int(request[i]) for i in scrape_spans}
    result.scrape_durations = duration[scrape_spans]
    view_mask = keep & (names == _ID["durable_ledger.view"])
    result.views_in_scrapes = int(
        np.isin(request[view_mask], list(scrape_requests)).sum()
    ) if scrape_requests else 0

    # Per-publish attribution.
    publish_id = _ID["server.publish"]
    roots = np.flatnonzero(keep & (names == publish_id))
    result.publishes = len(roots)
    if not len(roots):
        return result
    rows = len(roots)
    row_of = np.full(int(request.max()) + 1, -1, dtype=np.int64)
    row_of[request[roots]] = np.arange(rows)

    def rows_for(idx):
        req = request[idx]
        found = np.where(req >= 0, row_of[np.maximum(req, 0)], -1)
        return idx[found >= 0], found[found >= 0]

    per = {
        key: np.zeros(rows)
        for key in (
            "publish", "publish_self", "handle", "handle_self", "admit",
            "release", "charge", "record_result", "submit", "wait",
            "flush", "resume",
        )
    }
    per["publish"][:] = duration[roots]
    per["publish_self"][:] = self_time[roots]
    spans_of = {
        "server.handle_request": ("handle", "handle_self"),
        "overload.admit": ("admit", None),
        "overload.release": ("release", None),
        "durable_ledger.charge": ("charge", None),
        "durable_ledger.record_result": ("record_result", None),
    }
    for name, (inclusive, exclusive) in spans_of.items():
        idx, at = rows_for(np.flatnonzero(closed & (names == _ID[name])))
        np.add.at(per[inclusive], at, duration[idx])
        if exclusive is not None:
            np.add.at(per[exclusive], at, self_time[idx])
    idx, at = rows_for(
        np.flatnonzero(closed & (names == _ID["batching.submit"]))
    )
    np.add.at(per["submit"], at, duration[idx])
    flush = link[idx]
    served = flush >= 0
    served[served] = closed[flush[served]]
    idx, at, flush = idx[served], at[served], flush[served]
    np.add.at(per["wait"], at, t0[flush] - t0[idx])
    np.add.at(per["flush"], at, duration[flush])
    np.add.at(per["resume"], at, t1[idx] - t1[flush])
    result.per_request = per
    return result
