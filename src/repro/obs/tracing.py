"""Structured tracing: spans, trace propagation, JSONL + ring sinks.

A *trace* is one logical request (one ``POST /publish``); a *span* is a
timed step inside it. The serving stack emits a fixed vocabulary —
``server.publish`` → ``ledger.charge`` → ``wal.append`` → ``wal.fsync``
→ ``batch.flush`` → ``sampler.gather`` → ``audit.record`` — all sharing
the request's trace ID, so one grep over the JSONL log (or one ``GET
/trace/recent?trace=...``) reconstructs the request's path through the
batcher, the durable ledger, and the fused sampler.

Propagation uses :mod:`contextvars`, which asyncio copies into every
task and callback, and each :class:`TraceContext` carries its tracer:

* :meth:`Tracer.sample` decides (per ``rate``) whether a request is
  traced and returns a :class:`TraceContext` or ``None``;
* :meth:`Tracer.activate` binds the context to the current task, so any
  code the request awaits through — the ledger charge, the WAL append —
  opens spans with the module-level :func:`span`, holding no tracer and
  threading no arguments;
* micro-batching breaks task-linearity: one ``batch.flush`` serves many
  requests. The batcher binds the *list* of traced contexts in its
  batch (:func:`activate_batch`) around the execute step, and a span
  opened there is **broadcast** — one record per traced request in the
  batch, each under its own trace ID with its own parent span. The
  per-batch fsync and the fused gather therefore appear in every traced
  request they served.

Sinks: an append-only JSONL file per tracer (``--trace-dir``), buffered
and flushed every :data:`FLUSH_EVERY` records, plus a bounded in-memory
ring (``GET /trace/recent``). When no request is being traced,
:func:`span` returns a shared no-op singleton whose
``__enter__``/``__exit__`` do nothing — the hot-path cost of tracing at
``rate=0`` is one ContextVar read.

Record schema (one JSON object per line)::

    {"trace": "t-9f…", "span": "s-03…", "parent": "s-01…" | null,
     "name": "wal.fsync", "ts": 1754650000.123, "dur_ms": 0.41,
     "attrs": {"mode": "group", "batch": 17}}

``event`` records (audit findings) use the same shape with
``dur_ms = 0`` and bypass sampling — a flagged deployment is always
worth a line.
"""

from __future__ import annotations

import contextvars
import io
import json
import os
import random
import threading
import time
from collections import deque

from ..exceptions import ValidationError

__all__ = [
    "NOOP_SPAN",
    "TraceContext",
    "Tracer",
    "activate_batch",
    "current_trace",
    "deactivate_batch",
    "span",
]

#: Buffered span records are flushed to the JSONL sink at this many
#: pending records (and on ``close``). Keeps the write syscall off the
#: per-span path without risking unbounded loss on crash.
FLUSH_EVERY = 64

#: One shared encoder for the JSONL sink. ``json.dumps(..., default=)``
#: constructs a throwaway JSONEncoder per call; reusing one instance
#: keeps serialization to the C-encoder invocation itself.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str)

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace", default=None
)
_BATCH: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_batch", default=()
)

#: C-level accessor for the active request trace (a bound
#: ``ContextVar.get``): hot paths that only ask whether a request is
#: traced skip a Python frame.
current_trace = _CURRENT.get


class TraceContext:
    """Identity of one traced request: a trace ID, the active span, and
    the tracer its spans are recorded by."""

    __slots__ = ("trace_id", "span_id", "tracer")

    def __init__(self, trace_id: str, tracer: "Tracer") -> None:
        self.trace_id = trace_id
        self.span_id: str | None = None
        self.tracer = tracer


class _NoopSpan:
    """Shared do-nothing span for untraced requests."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _Span:
    """A timed span bound to one trace (or broadcast to a batch)."""

    __slots__ = ("_tracer", "_contexts", "name", "attrs", "_t0", "_parents")

    def __init__(self, contexts, name, attrs) -> None:
        self._tracer = contexts[0].tracer
        self._contexts = contexts
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self):
        self._parents = [ctx.span_id for ctx in self._contexts]
        span_id = self._tracer._new_span_id()
        for ctx in self._contexts:
            ctx.span_id = span_id
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur_ms = (time.perf_counter() - self._t0) * 1e3
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        ts = time.time()
        span_id = self._contexts[0].span_id
        for ctx, parent in zip(self._contexts, self._parents):
            tracer._emit(
                {
                    "trace": ctx.trace_id,
                    "span": span_id,
                    "parent": parent,
                    "name": self.name,
                    "ts": ts,
                    "dur_ms": round(dur_ms, 4),
                    "attrs": self.attrs,
                }
            )
            ctx.span_id = parent
        return False


def span(name: str, **attrs):
    """A context manager timing one step of the active trace(s).

    Prefers the request-scoped trace; falls back to the batch-scoped
    trace list (broadcasting one record per traced request); returns
    the shared no-op singleton when neither is bound.
    """
    ctx = _CURRENT.get()
    if ctx is not None:
        return _Span((ctx,), name, attrs)
    batch = _BATCH.get()
    if batch:
        return _Span(batch, name, attrs)
    return NOOP_SPAN


def activate_batch(contexts):
    """Bind the traced contexts of a micro-batch; returns a token.

    Also masks any request-scoped trace for the duration: a flush may
    run inside the submitting request's task (size trigger) or in a
    timer callback that copied one request's context — spans opened
    under the batch scope must broadcast to the whole batch, not attach
    to whichever request happened to schedule the flush.
    """
    return (_BATCH.set(tuple(contexts)), _CURRENT.set(None))


def deactivate_batch(token) -> None:
    batch_token, current_token = token
    _CURRENT.reset(current_token)
    _BATCH.reset(batch_token)


class Tracer:
    """Samples requests and records their spans to a ring + JSONL log.

    Parameters
    ----------
    rate:
        Probability in ``[0, 1]`` that :meth:`sample` traces a request.
    directory:
        When set, span records append to ``<directory>/trace.jsonl``
        (created on first record). ``None`` keeps the ring only.
    ring:
        Capacity of the in-memory ring buffer behind ``/trace/recent``.
    seed:
        Seeds the sampling RNG for deterministic traces in tests.
    """

    def __init__(
        self,
        rate: float = 0.0,
        directory=None,
        *,
        ring: int = 1024,
        seed: int | None = None,
    ) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"trace rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.directory = None if directory is None else os.fspath(directory)
        self._rng = random.Random(seed)
        #: Bound RNG draw, exposed so hot paths can inline the sampling
        #: coin (``tracer.coin() < tracer.rate``) without a Python call.
        self.coin = self._rng.random
        self._ring: deque = deque(maxlen=int(ring))
        self._lock = threading.Lock()
        self._file: io.TextIOBase | None = None
        self._unwritten: list = []
        self._counter = 0
        self._id_prefix = f"{os.getpid():x}{self._rng.randrange(1 << 32):08x}"
        self.emitted = 0

    # -- identity ------------------------------------------------------
    def _new_id(self, kind: str) -> str:
        self._counter += 1
        return f"{kind}-{self._id_prefix}{self._counter:06x}"

    def _new_span_id(self) -> str:
        return self._new_id("s")

    # -- sampling and propagation --------------------------------------
    def sample(self) -> TraceContext | None:
        """Trace this request? A context when yes, ``None`` when no."""
        if self.rate <= 0.0:
            return None
        if self.rate < 1.0 and self.coin() >= self.rate:
            return None
        return self.begin()

    def begin(self) -> TraceContext:
        """Unconditionally start a trace (no sampling coin).

        For callers that inline the rate check themselves — the server
        draws ``coin()`` directly so the untraced majority of requests
        never enters a Python frame here.
        """
        return TraceContext(self._new_id("t"), self)

    def activate(self, ctx: TraceContext):
        """Bind ``ctx`` as the current task's trace; returns a token."""
        return _CURRENT.set(ctx)

    def deactivate(self, token) -> None:
        _CURRENT.reset(token)

    activate_batch = staticmethod(activate_batch)
    deactivate_batch = staticmethod(deactivate_batch)

    # -- spans ---------------------------------------------------------
    span = staticmethod(span)

    def event(self, name: str, **attrs) -> dict:
        """An instantaneous, always-recorded event (bypasses sampling).

        Joins the active trace when one is bound; otherwise gets a fresh
        trace ID. Used for audit findings, which must never be lost to
        the sampling rate.
        """
        ctx = _CURRENT.get()
        record = {
            "trace": ctx.trace_id if ctx is not None else self._new_id("t"),
            "span": self._new_span_id(),
            "parent": ctx.span_id if ctx is not None else None,
            "name": name,
            "ts": time.time(),
            "dur_ms": 0.0,
            "attrs": attrs,
        }
        self._emit(record)
        return record

    # -- sinks ---------------------------------------------------------
    def _emit(self, record: dict) -> None:
        with self._lock:
            self.emitted += 1
            self._ring.append(record)
            if self.directory is not None:
                # The emit path only parks the raw dict; serialization
                # and the file write happen in one batched pass per
                # FLUSH_EVERY records (and on flush/close) — per-record
                # encode+write in the middle of a request burst costs
                # several times the amortized batch encode.
                self._unwritten.append(record)
                if len(self._unwritten) >= FLUSH_EVERY:
                    self._drain()

    def _drain(self) -> None:
        """Encode and write parked records; caller holds the lock."""
        if not self._unwritten:
            return
        if self._file is None:
            os.makedirs(self.directory, exist_ok=True)
            self._file = open(
                os.path.join(self.directory, "trace.jsonl"),
                "a",
                encoding="utf-8",
            )
        # One reused encoder (dumps() with ``default=`` builds a fresh
        # JSONEncoder per call), one write, one flush for the batch.
        encode = _ENCODER.encode
        self._file.write(
            "".join([encode(record) + "\n" for record in self._unwritten])
        )
        self._unwritten.clear()
        self._file.flush()

    def recent(
        self, limit: int = 100, *, name: str | None = None,
        trace: str | None = None,
    ) -> list:
        """Newest-first records from the ring, optionally filtered."""
        with self._lock:
            records = list(self._ring)
        records.reverse()
        if name is not None:
            records = [r for r in records if r["name"] == name]
        if trace is not None:
            records = [r for r in records if r["trace"] == trace]
        return records[: max(0, int(limit))]

    def flush(self) -> None:
        with self._lock:
            if self.directory is not None:
                self._drain()

    def close(self) -> None:
        with self._lock:
            if self.directory is not None:
                self._drain()
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
