"""Micro-batching for the mechanism-serving pipeline.

The sampling layer is fastest when it is fed *batches*: one
:meth:`repro.sampling.alias.HeterogeneousAliasSampler.sample` call draws
for thousands of queries — across deployments of different ``n`` and
``alpha`` — in a single fused numpy gather. Individual serving requests,
however, arrive one at a time on an asyncio loop. The
:class:`MicroBatcher` bridges the two: concurrent requests park on
futures while their ``(table, row)`` pairs accumulate, and the batch is
executed as one gather when either

* the **size bound** is hit (``max_size`` pending queries), or
* the **deadline** fires (``window`` seconds after the first query of
  the batch arrived — a latency bound, not a throughput tax: an idle
  batcher schedules nothing).

``window <= 0`` or ``max_size == 1`` degenerates to unbatched execution
(every query is its own gather), which is exactly the baseline
``benchmarks/bench_serving.py`` measures micro-batching against.

The executor callback is synchronous and must never block the loop for
long — the intended executor is a pure alias-table gather plus counter
updates (see :meth:`repro.serving.server.MechanismServer`).

Counts live in the batcher (:attr:`MicroBatcher.stats` is their JSON
view) and flush timings in its :attr:`MicroBatcher.flush_latency` log;
the server's scrape-time collector exposes both. For requests being
traced, a ``batch.flush`` span is broadcast to every traced request
fused into the batch: the batcher binds the batch's trace contexts
around ``execute``, so spans opened inside it, like the group-commit
fsync and the fused gather, join every one of those traces.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable

import numpy as np

from ..exceptions import ValidationError
from ..obs.metrics import LatencyLog
from ..obs.tracing import activate_batch, deactivate_batch, span
from ..release.durable_ledger import NO_FAULTS

__all__ = ["MicroBatcher"]

#: Flush reasons tracked in ``stats["flush_reasons"]``. ``manual``
#: covers direct ``flush()`` calls (drain paths); ``immediate`` is the
#: unbatched ``window <= 0`` mode.
FLUSH_REASONS = ("max_size", "deadline", "immediate", "manual", "close")

#: Batch sizes are counted per power-of-two bound 1, 2, 4, ... 16384,
#: plus one overflow slot: a batch of ``n`` lands in slot
#: ``min((n - 1).bit_length(), 15)``, the same buckets as the
#: ``repro_batch_size`` histogram.
SIZE_SLOTS = 16


class MicroBatcher:
    """Coalesce concurrent queries into fused sampler executions.

    Parameters
    ----------
    execute:
        ``execute(tables, rows) -> values``: one vectorized tick over
        equal-length int64 arrays, returning one output per query.
        Raising makes every query of the batch fail with that exception.
    window:
        Deadline in seconds from the first query of a batch to its
        flush. ``0`` disables the timer (every query flushes itself —
        the unbatched mode).
    max_size:
        Flush immediately once this many queries are pending.

    Each count is kept once: ``queries``, ``max_batch``,
    ``peak_pending``, ``flush_reasons`` (per :data:`FLUSH_REASONS`),
    ``sizes`` (batches per power-of-two size slot, see
    :data:`SIZE_SLOTS`) and ``rows`` (queries flushed). :attr:`stats`
    derives the rest.
    """

    def __init__(
        self,
        execute: Callable[[np.ndarray, np.ndarray], np.ndarray],
        *,
        window: float = 0.002,
        max_size: int = 4096,
        faults=None,
    ) -> None:
        if window < 0:
            raise ValidationError(f"window must be >= 0, got {window}")
        if max_size < 1:
            raise ValidationError(f"max_size must be >= 1, got {max_size}")
        self._execute = execute
        self.faults = NO_FAULTS if faults is None else faults
        self.window = float(window)
        self.max_size = int(max_size)
        self._pending: list[tuple[int, int, asyncio.Future]] = []
        self._traced: list = []
        self._timer: asyncio.TimerHandle | None = None
        self.queries = 0
        self.max_batch = 0
        # High-water mark of parked queries: the admission controller
        # bounds in-flight publishes, and this is the observable proof
        # the bound held (peak_pending <= queue depth + the executing
        # batch).
        self.peak_pending = 0
        self.flush_reasons = dict.fromkeys(FLUSH_REASONS, 0)
        self.sizes = [0] * SIZE_SLOTS
        self.rows = 0
        #: Wall time of each executed batch (gather + group fsync).
        self.flush_latency = LatencyLog()

    @property
    def stats(self) -> dict:
        """The counts as one JSON-ready dict: ``queries``, ``batches``,
        ``size_flushes`` and ``deadline_flushes`` (the ``max_size`` and
        ``deadline`` flush reasons), ``max_batch``, ``peak_pending``,
        ``flush_reasons``, and ``occupancy`` (batches per power-of-two
        size: key ``"1"`` counts 1-row batches, ``"2"`` 2-row, ``"4"``
        3-4, doubling up to ``"16384+"`` for every batch above 8192)."""
        reasons, sizes = self.flush_reasons, self.sizes
        occupancy = {str(1 << i): sizes[i] for i in range(SIZE_SLOTS - 2)}
        occupancy["16384+"] = sizes[-2] + sizes[-1]
        return {
            "queries": self.queries,
            "batches": sum(sizes),
            "size_flushes": reasons["max_size"],
            "deadline_flushes": reasons["deadline"],
            "max_batch": self.max_batch,
            "peak_pending": self.peak_pending,
            "flush_reasons": dict(reasons),
            "occupancy": occupancy,
        }

    @property
    def pending(self) -> int:
        """Queries currently parked awaiting a flush."""
        return len(self._pending)

    async def submit(self, table: int, row: int, trace=None) -> int:
        """Enqueue one query and await its sampled output.

        ``trace`` optionally carries the submitting request's
        :class:`repro.obs.TraceContext`, so batch-scoped spans from the
        flush that serves this query are recorded under its trace ID.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((int(table), int(row), future))
        if trace is not None:
            self._traced.append(trace)
        self.queries += 1
        if len(self._pending) > self.peak_pending:
            self.peak_pending = len(self._pending)
        if len(self._pending) >= self.max_size:
            self.flush(reason="max_size")
        elif self.window <= 0:
            self.flush(reason="immediate")
        elif self._timer is None:
            self._timer = loop.call_later(self.window, self._deadline_flush)
        return await future

    def _deadline_flush(self) -> None:
        self.flush(reason="deadline")

    def flush(self, reason: str = "manual") -> None:
        """Execute everything pending as one fused tick (no-op if empty).

        Safe to call at any time — shutdown paths use it to drain the
        queue without waiting out the deadline.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        traced, self._traced = self._traced, []
        if not pending:
            return
        size = len(pending)
        self.flush_reasons[reason] += 1
        self.sizes[min((size - 1).bit_length(), SIZE_SLOTS - 1)] += 1
        self.rows += size
        if size > self.max_batch:
            self.max_batch = size
        tables = np.fromiter(
            (item[0] for item in pending), dtype=np.int64, count=size
        )
        rows = np.fromiter(
            (item[1] for item in pending), dtype=np.int64, count=size
        )
        batch_token = activate_batch(traced) if traced else None
        t0 = time.perf_counter()
        try:
            with span("batch.flush", size=size, reason=reason):
                self.faults.crash("batcher.before-execute")
                values = self._execute(tables, rows)
                self.faults.crash("batcher.after-execute")
        except BaseException as err:  # noqa: BLE001 - must not strand futures
            # InjectedCrash (and real crashes like KeyboardInterrupt)
            # tear through `except Exception` everywhere else, but a
            # flush may run from a timer callback where nothing awaits
            # it — re-raising would strand every parked future forever.
            # Failing the futures *is* the propagation path.
            for _, _, future in pending:
                if not future.done():
                    future.set_exception(err)
            return
        finally:
            if batch_token is not None:
                deactivate_batch(batch_token)
        self.flush_latency.add(time.perf_counter() - t0)
        for (_, _, future), value in zip(pending, values):
            # A caller may have timed out / been cancelled mid-batch;
            # its slot was still sampled (the gather is all-or-nothing)
            # but nobody is waiting for the result.
            if not future.done():
                future.set_result(int(value))

    def close(self) -> None:
        """Cancel the deadline timer and fail anything still pending."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        self._traced = []
        for _, _, future in pending:
            if not future.done():
                future.set_exception(
                    RuntimeError("micro-batcher closed with queries pending")
                )
