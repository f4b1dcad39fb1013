"""Out-of-process HTTP load generator for the benchmark's HTTP workloads.

One process, one thread, at most ``max(2, nproc)`` raw keep-alive
sockets driven by ``selectors`` — no ``HTTPServingClient``, whose
retries, backoff and JSON handling would be measured along with the
server. Publisher connections run a closed loop: each sends its next
request as soon as the previous response is complete. A scraper
connection issues ``GET /metrics?format=prometheus`` with a fixed pause
between scrapes, counted in publishes: it scrapes again once
``--scrape-every`` publishes have completed since its last scrape, so the
share of publishes that queue behind a scrape stays fixed however fast
either one runs.

Run as a script by ``perfbench/run.py``::

    python3 perfbench/loadgen.py --port P --server-pid PID \\
        --workload NAME --seed N --warmup W --seconds S \\
        --scrape-every K --out result.json

The result records every publish status in send order (the orchestrator
checks them against the floor), latencies of requests sent inside the
measured window, the server's CPU seconds over the window (read from
``/proc/<pid>/stat``), and the generator's own CPU share, which must stay
below :data:`SATURATED` for the run to count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import socket
import sys
import time

if __package__ in (None, ""):
    # Run as a script: import the package from the checkout root instead
    # of this directory.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench.inputs import SHAPES, request_pool  # noqa: E402

#: Generator CPU share (CPU seconds per wall second over the window) at
#: or above which the generator counts as saturated: its numbers would
#: then measure the generator, so the run is refused.
SATURATED = 0.9

SCRAPE_TARGET = "/metrics?format=prometheus"

#: Seconds after the window closes that in-flight requests may take to
#: finish; one still open then counts as a failure.
DRAIN_TIMEOUT = 30.0


class ProtocolError(Exception):
    """The server sent bytes that are not a well-formed HTTP/1.1 reply."""


def encode_request(method: str, target: str, body: bytes = b"",
                   host: str = "127.0.0.1") -> bytes:
    """One HTTP/1.1 keep-alive request, framed by ``Content-Length``."""
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    if body:
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
    return (head + "\r\n").encode("latin-1") + body


def encode_publish(payload: dict, host: str = "127.0.0.1") -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return encode_request("POST", "/publish", body, host)


class ResponseParser:
    """Incremental HTTP/1.1 response framing: feed bytes as they arrive,
    get back every response they complete as ``(status, body)``."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list:
        self._buffer += data
        done = []
        while True:
            head_end = self._buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return done
            lines = bytes(self._buffer[:head_end]).decode("latin-1").split(
                "\r\n"
            )
            parts = lines[0].split(" ", 2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/"):
                raise ProtocolError(f"bad status line {lines[0]!r}")
            try:
                status = int(parts[1])
            except ValueError:
                raise ProtocolError(f"bad status {parts[1]!r}") from None
            length = None
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        raise ProtocolError(
                            f"bad Content-Length {value!r}"
                        ) from None
            if length is None or length < 0:
                raise ProtocolError("response without a Content-Length")
            end = head_end + 4 + length
            if len(self._buffer) < end:
                return done
            done.append((status, bytes(self._buffer[head_end + 4:end])))
            del self._buffer[:end]


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        data = handle.read()
    fields = data[data.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class _Conn:
    def __init__(self, role: str, sock: socket.socket) -> None:
        self.role = role
        self.sock = sock
        self.parser = ResponseParser()
        self.sent_at = 0.0
        self.index = -1          # pool index of the in-flight publish
        self.busy = False
        self.due = 0             # scraper: publishes to wait for
        self.closed = False


def run(args) -> dict:
    shape = SHAPES[args.workload]
    pool = request_pool(args.workload, args.seed)
    requests = [encode_publish(pool.payload(k)) for k in range(len(pool))]
    scrape_request = encode_request("GET", SCRAPE_TARGET)
    limit = max(2, os.cpu_count() or 1)
    roles = ["publish"] * shape.concurrency + ["scrape"] * shape.scrapers
    if len(roles) > limit:
        raise SystemExit(f"{len(roles)} connections exceed {limit}")

    selector = selectors.DefaultSelector()
    conns = []
    for role in roles:
        sock = socket.create_connection((args.host, args.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Conn(role, sock)
        conns.append(conn)
        selector.register(sock, selectors.EVENT_READ, conn)

    statuses = []            # per publish, in send order
    latencies = []           # publishes sent inside the window
    bad_values = 0
    transport_errors = 0
    completed_in_window = 0
    attempted_in_window = 0
    max_lag = 0.0

    begin = time.perf_counter()
    start = begin + args.warmup
    end = start + args.seconds
    marks = {}

    def send_publish(conn, now):
        nonlocal attempted_in_window
        k = len(statuses)
        statuses.append(0)
        conn.index = k
        conn.sent_at = now
        conn.busy = True
        if start <= now < end:
            attempted_in_window += 1
        conn.sock.sendall(requests[k % len(requests)])

    def send_scrape(conn, now):
        conn.sent_at = now
        conn.busy = True
        conn.sock.sendall(scrape_request)

    def fail(conn):
        nonlocal transport_errors
        transport_errors += 1
        conn.closed = True
        conn.busy = False
        selector.unregister(conn.sock)
        conn.sock.close()

    completed = 0            # publishes completed, whole run
    now = time.perf_counter()
    for conn in conns:
        if conn.role == "publish":
            send_publish(conn, now)
        else:
            conn.due = args.scrape_every

    while True:
        now = time.perf_counter()
        if "start" not in marks and now >= start:
            max_lag = max(max_lag, now - start)
            marks["start"] = (now, proc_cpu_seconds(args.server_pid),
                              _self_cpu())
        if "end" not in marks and now >= end:
            max_lag = max(max_lag, now - end)
            marks["end"] = (now, proc_cpu_seconds(args.server_pid),
                            _self_cpu())
        live = [c for c in conns if not c.closed]
        if now >= end and not any(c.busy for c in live):
            break
        if now >= end + DRAIN_TIMEOUT:
            break
        pending = [t for t in (start - now if "start" not in marks else None,
                               end - now if "end" not in marks else None)
                   if t is not None]
        timeout = max(0.0, min(pending)) if pending else 0.05
        for key, _ in selector.select(min(timeout, 0.05)):
            conn = key.data
            try:
                data = conn.sock.recv(1 << 16)
            except OSError:
                fail(conn)
                continue
            if not data:
                fail(conn)
                continue
            try:
                responses = conn.parser.feed(data)
            except ProtocolError:
                fail(conn)
                continue
            for status, body in responses:
                done = time.perf_counter()
                conn.busy = False
                if conn.role == "publish":
                    completed += 1
                    k = conn.index
                    statuses[k] = status
                    if status == 200:
                        try:
                            value = json.loads(body)["value"]
                            ok = (isinstance(value, int)
                                  and 0 <= value <= pool.n_of(k))
                        except (ValueError, KeyError, TypeError):
                            ok = False
                        if not ok:
                            bad_values += 1
                    if start <= conn.sent_at < end:
                        latencies.append(done - conn.sent_at)
                    if start <= done < end:
                        completed_in_window += 1
                    if done < end:
                        send_publish(conn, done)
                else:
                    if status != 200:
                        bad_values += 1
                    conn.due = completed + args.scrape_every
        for conn in live:
            if (conn.role == "scrape" and not conn.busy and not conn.closed
                    and completed >= conn.due):
                now = time.perf_counter()
                if now < end:
                    send_scrape(conn, now)

    for conn in conns:
        if not conn.closed:
            conn.sock.close()
    selector.close()
    in_flight = sum(1 for c in conns if c.busy and not c.closed)
    first, last = marks.get("start"), marks.get("end")
    wall = last[0] - first[0] if first and last else float("nan")
    return {
        "window": [start, end],
        "connections": len(conns),
        "statuses": statuses,
        "latencies": latencies,
        "attempted_in_window": attempted_in_window,
        "completed_in_window": completed_in_window,
        "bad_values": bad_values,
        "transport_errors": transport_errors,
        "unfinished": in_flight,
        "server_cpu_s": last[1] - first[1] if first and last else None,
        "cpu_share": (last[2] - first[2]) / wall if first and last else None,
        "wall_s": wall,
        "max_lag_ms": 1e3 * max_lag,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warmup", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scrape-every", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    result["saturated"] = (
        result["cpu_share"] is not None and result["cpu_share"] >= SATURATED
    )
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
