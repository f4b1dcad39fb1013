"""The HTTP/1.1 edge of :class:`~repro.serving.server.MechanismServer`.

Bytes in, bytes out: this module frames requests, bounds what it reads
and writes responses. Everything in between — routing, the publish
pipeline, the GET views — is
:meth:`~repro.serving.server.MechanismServer.handle_request`, which
in-process clients call directly.

The edge's own answers are the wire's refusals, each counted through
:meth:`~repro.serving.server.MechanismServer.reply`:

* a 400 under ``bad_request`` for framing it cannot parse, then close
  (where the next request would start is unknown): a request line that
  is not ``METHOD TARGET VERSION``, a line past the stream reader's
  64 KiB limit, more than :data:`MAX_HEADERS` header lines, a bad or
  oversized ``Content-Length``, or any ``Transfer-Encoding`` — bodies
  are framed by ``Content-Length`` only;
* a 400 under ``bad_request`` for a body that is not a JSON object (the
  framing was sound, so the connection stays open);
* a 500 under ``errors`` for an exception that escapes the server, then
  close. Only ``Exception`` is caught: an injected crash and a
  cancellation still pass through.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from http import HTTPStatus

__all__ = ["MAX_BODY", "MAX_HEADERS", "serve_connection"]

#: Request bodies above this are refused outright (a publish payload is
#: tiny; anything bigger is a client bug or abuse).
MAX_BODY = 1 << 16

#: Header lines allowed per request: ``http.client``'s limit.
MAX_HEADERS = 100


async def serve_connection(server, reader, writer) -> None:
    """Serve one client connection, request after request, until close.

    The task is registered with the server, so a graceful drain can
    await in-flight handlers (bounded by its drain deadline) instead of
    abandoning keep-alive connections mid-response.
    """
    task = asyncio.current_task()
    server._connections.add(task)
    try:
        while await _exchange(server, reader, writer):
            pass
    except (
        asyncio.IncompleteReadError,
        ConnectionError,
        asyncio.CancelledError,
    ):
        pass
    finally:
        writer.close()
        with contextlib.suppress(
            ConnectionError, OSError, asyncio.CancelledError
        ):
            await writer.wait_closed()
        server._connections.discard(task)


async def _exchange(server, reader, writer) -> bool:
    """Read one request, answer it; returns whether to keep the
    connection open."""
    try:
        head = await _read_head(reader)
    except ValueError as err:
        status, response = server.reply(
            400, "bad_request", {"error": f"malformed request: {err}"}
        )
        await _respond(writer, status, response, keep_alive=False)
        return False
    if head is None:
        return False
    method, target, headers, length = head
    body = await reader.readexactly(length) if length else b""
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    try:
        status, response = await _dispatch(
            server, method, target, headers, body
        )
    except Exception as err:  # noqa: BLE001 - the one counted catch-all
        status, response = server.reply(
            500, "errors", {"error": f"internal error: {err}"}
        )
        keep_alive = False
    keep_alive = keep_alive and not server._draining
    await _respond(writer, status, response, keep_alive=keep_alive)
    return keep_alive


async def _dispatch(server, method, target, headers, body):
    payload = None
    if body:
        try:
            payload = json.loads(body)
            if not isinstance(payload, dict):
                raise ValueError("body must be an object")
        except ValueError as err:
            return server.reply(
                400, "bad_request", {"error": f"malformed JSON body: {err}"}
            )
    return await server.handle_request(method, target, payload, headers)


async def _read_head(reader):
    """Read one request head as ``(method, target, headers, body
    length)``; ``None`` at end of stream. Raises ``ValueError`` for
    framing the edge refuses — the stream reader itself raises it for a
    line past its 64 KiB limit."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValueError("the request line is not METHOD TARGET VERSION")
    headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ValueError(f"more than {MAX_HEADERS} header lines")
    if "transfer-encoding" in headers:
        raise ValueError(
            "Transfer-Encoding is not supported; send the body with a "
            "Content-Length"
        )
    length = headers.get("content-length") or "0"
    if not (length.isascii() and length.isdigit()):
        raise ValueError(
            f"Content-Length must be a non-negative integer, got "
            f"{length[:32]!r}"
        )
    if int(length) > MAX_BODY:
        raise ValueError("request body too large")
    return parts[0], parts[1], headers, int(length)


async def _respond(writer, status, response, *, keep_alive) -> None:
    """Write one response. A ``{"__raw__": text, "__content_type__": …}``
    body (the Prometheus exposition) is served verbatim; anything else
    as JSON."""
    if isinstance(response, dict) and "__raw__" in response:
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
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"{retry_header}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}"
        f"\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + data)
    await writer.drain()
