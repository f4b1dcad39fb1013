"""Clients for the mechanism server.

Two transports, one call shape:

* :class:`InProcessClient` — calls straight into
  :meth:`repro.serving.server.MechanismServer.handle_request` with no
  sockets or serialization. This is the co-located fast path tests and
  ``benchmarks/bench_serving.py`` drive (the measured throughput is the
  serving pipeline itself — batcher, ledger, fused gather, audit hook —
  not TCP);
* :class:`HTTPServingClient` — a minimal asyncio HTTP/1.1 client with
  one keep-alive connection, exercising exactly what ``curl`` sees —
  plus the resilience a real caller needs: per-request timeouts (a
  stalled server can no longer hang the coroutine forever), bounded
  exponential backoff with deterministic jitter, and automatic
  idempotency keys on ``publish`` so a retry after a lost response
  replays the original answer instead of double-charging the budget.

Both return ``(status, payload)`` rather than raising on 4xx/5xx: a 429
budget rejection is flow control a load generator counts, not an
exception.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import random

from ..exceptions import ReproError

__all__ = ["InProcessClient", "HTTPServingClient"]

#: Errors worth retrying: the request may never have reached the server
#: (connect refused/reset, torn connection) or the response was lost
#: (timeout, truncated read). With an idempotency key both cases are
#: safe to replay.
RETRYABLE = (
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    ConnectionError,
    OSError,
    ReproError,
)


def _publish_payload(
    user, n, alpha, true_result, kind, loss, side, idem=None
) -> dict:
    payload = {
        "user": user,
        "n": n,
        "alpha": alpha,
        "true_result": true_result,
    }
    if kind != "geometric":
        payload["kind"] = kind
    if loss is not None:
        payload["loss"] = loss
    if side is not None:
        payload["side"] = list(side)
    if idem is not None:
        payload["idem"] = idem
    return payload


class InProcessClient:
    """Zero-transport client for a co-located :class:`MechanismServer`."""

    def __init__(self, server) -> None:
        self.server = server

    async def publish(
        self,
        *,
        user: str,
        n: int,
        alpha,
        true_result: int,
        kind: str = "geometric",
        loss: str | None = None,
        side=None,
        idem: str | None = None,
    ) -> tuple[int, dict]:
        return await self.server.publish(
            _publish_payload(
                user, n, alpha, true_result, kind, loss, side, idem
            )
        )

    async def get(self, path: str) -> tuple[int, dict]:
        return await self.server.handle_request("GET", path)


class HTTPServingClient:
    """Keep-alive HTTP/1.1 client against a live server socket.

    Parameters
    ----------
    timeout:
        Per-attempt deadline in seconds covering connect + write + read.
        A stalled or half-dead server produces a ``TimeoutError`` after
        ``timeout`` seconds instead of hanging the caller forever.
        ``None`` disables the deadline (the pre-resilience behavior).
    retries:
        Additional attempts after the first failure. Each retry drops
        the (possibly poisoned) connection and reconnects.
    backoff / backoff_max:
        Bounded exponential backoff between attempts:
        ``min(backoff * 2**attempt, backoff_max)`` scaled by a jitter in
        ``[0.5, 1.0)`` so a fleet of recovering clients does not
        stampede in lockstep.
    seed:
        Seeds the jitter RNG for reproducible retry schedules in tests.

    ``publish`` attaches an idempotency key automatically (override with
    ``idem=``), so a retried publish whose first response was lost
    replays the server's original answer rather than charging twice.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 5.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        seed: int | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_max = float(backoff_max)
        self._rng = random.Random(seed)
        self._idem_prefix = f"{os.getpid():x}-{self._rng.randrange(1 << 48):012x}"
        self._idem_counter = itertools.count()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def _drop_connection(self) -> None:
        """Discard a connection whose state is no longer trustworthy."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
        self._writer = None
        self._reader = None

    def _backoff_delay(self, attempt: int) -> float:
        base = min(self.backoff * (2 ** attempt), self.backoff_max)
        return base * (0.5 + 0.5 * self._rng.random())

    async def _round_trip(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, float | None]:
        await self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ReproError("server closed the connection")
        parts = status_line.decode("latin-1").split(maxsplit=2)
        status = int(parts[1])
        length = 0
        retry_after: float | None = None
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "retry-after":
                # The server paces shed/breaker responses in fractional
                # seconds; an unparseable value is ignored, not fatal.
                with contextlib.suppress(ValueError):
                    retry_after = float(value.strip())
        data = await self._reader.readexactly(length) if length else b"{}"
        try:
            return status, json.loads(data), retry_after
        except ValueError:
            # Content-negotiated raw-text route (e.g. the Prometheus
            # exposition of /metrics); mirror the in-process shape.
            return (
                status,
                {"__raw__": data.decode("utf-8", "replace")},
                retry_after,
            )

    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        """One logical round-trip: timeout-bounded, retried with backoff.

        Raises the last attempt's error once ``retries`` extra attempts
        are exhausted. POSTs without an ``idem`` key in the payload are
        still retried — the serving operations are safe to replay only
        with a key, which :meth:`publish` attaches automatically.

        A 429/503 carrying a ``Retry-After`` header is a *shed* (or
        open-breaker) response: the server refused the request **before
        any ledger charge**, so it is safe to replay even without an
        idempotency key — the client honors the server's pacing hint
        (clamped to ``backoff_max``) instead of its own exponential
        clock. A 429 *without* the header is a budget-floor rejection:
        deterministic, never retried, returned as-is.
        """
        body = b"" if payload is None else json.dumps(payload).encode()
        last_error: BaseException | None = None
        for attempt in range(self.retries + 1):
            if attempt and last_error is not None:
                await asyncio.sleep(self._backoff_delay(attempt - 1))
            try:
                # A timeout of None waits for as long as the round trip
                # takes.
                status, response, retry_after = await asyncio.wait_for(
                    self._round_trip(method, path, body), self.timeout
                )
                if (
                    retry_after is not None
                    and status in (429, 503)
                    and attempt < self.retries
                ):
                    last_error = None
                    await asyncio.sleep(min(retry_after, self.backoff_max))
                    continue
                return status, response
            except RETRYABLE as err:
                last_error = err
                await self._drop_connection()
        raise last_error

    async def publish(
        self,
        *,
        user: str,
        n: int,
        alpha,
        true_result: int,
        kind: str = "geometric",
        loss: str | None = None,
        side=None,
        idem: str | None = None,
    ) -> tuple[int, dict]:
        if idem is None:
            idem = f"{self._idem_prefix}-{next(self._idem_counter)}"
        return await self.request(
            "POST",
            "/publish",
            _publish_payload(
                user, n, alpha, true_result, kind, loss, side, idem
            ),
        )

    async def get(self, path: str) -> tuple[int, dict]:
        return await self.request("GET", path)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None
