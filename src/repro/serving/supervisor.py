"""Supervised multi-worker serving fleet: ``repro serve --workers N``.

One :class:`MechanismServer` process saturates one core (the gather is
numpy, but charges, HTTP framing, and the event loop are Python), so the
fleet story is N worker *processes* sharing the pieces PR 6–8 already
made shareable:

* **one listen socket** — the supervisor binds a single
  ``SO_REUSEPORT`` TCP listener and passes its fd to every worker over
  ``fork/exec`` (``subprocess`` + ``pass_fds``); the kernel
  load-balances accepts across workers, so there is no userspace proxy
  on the hot path and a worker crash never loses the port;
* **one durable ledger** — the flock-shared
  :class:`~repro.release.durable_ledger.DurableLedger` directory; every
  charge from every worker is serialized through the same WAL, so the
  per-user floor binds fleet-wide, not per-process;
* **one artifact store** — advisory-locked, so N workers racing a cold
  compile produce one artifact.

The supervisor itself is deliberately boring and stdlib-only: a
synchronous loop that spawns workers, reads their **heartbeat pipes**
(one ``os.pipe`` per worker; the worker writes a JSON line every
``heartbeat_interval`` seconds carrying its pid, readiness, and publish
count), and restarts whatever dies — heartbeats make every restart
decision:

* a worker that **exits** (crash, ``SIGKILL``, OOM) is respawned with
  capped exponential backoff (``backoff_base * 2**failures`` up to
  ``backoff_cap``; the failure count resets after ``stability_reset``
  seconds of healthy uptime). Restarts are budget-safe by construction:
  the replacement replays the shared WAL, so acked charges survive and
  a crash can only over-protect;
* a worker whose **heartbeats stop** (hung event loop) is killed and
  respawned;
* a worker that beats but reports **not ready** (dropped listener, open
  WAL breaker, no deployments) past ``not_ready_timeout`` is asked to
  drain (``SIGTERM``) and replaced.

``SIGTERM``/``SIGINT`` on the supervisor flips the fleet to **lame
duck**: restarts stop, every worker gets ``SIGTERM`` (each drains
in-flight requests, flushes its batcher, fsyncs the shared ledger),
stragglers past ``drain_deadline`` are killed, and the listener closes
last. ``SIGHUP`` (or :meth:`ServingSupervisor.rolling_reload`) replaces
workers **one slot at a time**, waiting for each replacement's
readiness heartbeat before touching the next — a rolling artifact
reload with at least ``workers - 1`` serving capacity throughout.

Chaos hooks (the ``-m chaos`` suite drives these): worker configs can
arm an **fsync storm** (a :class:`~repro.serving.faults.FaultyFS` burst
that must open the worker's WAL circuit breaker, never silently drop
durability) or a **listener drop** (the worker closes its HTTP listener
but keeps beating not-ready — the supervisor must notice and replace
it); :meth:`ServingSupervisor.kill_worker` delivers real signals
mid-traffic.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

from ..exceptions import ReproError, ValidationError
from .config import ServerConfig

__all__ = ["ServingSupervisor", "make_listen_socket"]


def make_listen_socket(
    host: str = "127.0.0.1", port: int = 0, *, backlog: int = 128
) -> socket.socket:
    """Bind one shareable TCP listener for the whole fleet.

    ``SO_REUSEPORT`` is set when the platform offers it (Linux/BSD) so
    future sibling listeners could join; the fleet's workers share this
    *one* socket's fd regardless, which keeps accept load-balancing in
    the kernel and survives any single worker's death.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if hasattr(socket, "SO_REUSEPORT"):
        with contextlib.suppress(OSError):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


@dataclass
class _WorkerSlot:
    """Supervisor-side state for one fleet slot."""

    index: int
    proc: subprocess.Popen | None = None
    hb_fd: int | None = None
    hb_buf: bytes = b""
    pid: int | None = None
    started_at: float = 0.0
    last_beat: float = 0.0
    beats: int = 0
    ready: bool | None = None
    not_ready_since: float | None = None
    published: int = 0
    failures: int = 0
    restart_at: float | None = None
    spawns: int = 0
    exits: list = field(default_factory=list)

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class ServingSupervisor:
    """Spawn, watch, restart, drain, and roll a fleet of serving workers.

    Parameters
    ----------
    worker_config:
        The JSON-serializable configuration every worker builds its
        :class:`~repro.serving.server.MechanismServer` from: ``store``
        (path, required), an optional ``faults`` dict
        (``{"fsync_storm": {"after": k, "times": m}}`` and/or
        ``{"listener_drop_after_s": x}``), and any
        :class:`~repro.serving.config.ServerConfig` fields (``floor`` as
        a string fraction). It is validated here, in the supervisor's
        process: an unknown key raises
        :class:`~repro.exceptions.ValidationError` naming it. Every
        worker then receives every setting.
    workers:
        Fleet size (slots). Each slot holds at most one live process.
    host / port:
        Where the shared listener binds (``port=0`` picks an ephemeral
        port, exposed as :attr:`port` after :meth:`start`).
    heartbeat_interval / heartbeat_timeout / not_ready_timeout:
        Worker beat cadence; how long silence means "hung — kill and
        respawn"; how long a beating-but-not-ready worker is tolerated
        before being drained and replaced.
    backoff_base / backoff_cap / stability_reset:
        Capped exponential restart backoff, and the healthy-uptime span
        after which the failure count resets.
    drain_deadline:
        Lame-duck patience: seconds workers get to drain after
        ``SIGTERM`` before ``SIGKILL``.
    slot_overrides:
        Optional per-slot config overlays (``{slot_index: {...}}``),
        merged over ``worker_config`` and validated the same way — how
        the chaos suite aims an fsync storm at exactly one worker.
    """

    def __init__(
        self,
        worker_config: dict,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 3.0,
        not_ready_timeout: float = 3.0,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        stability_reset: float = 5.0,
        drain_deadline: float = 5.0,
        slot_overrides: dict | None = None,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.slot_overrides = dict(slot_overrides or {})
        self._shipped = [
            _worker_spec({**worker_config, **self.slot_overrides.get(i, {})})
            for i in range(self.workers)
        ]
        self.host = host
        self._requested_port = int(port)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.not_ready_timeout = float(not_ready_timeout)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.stability_reset = float(stability_reset)
        self.drain_deadline = float(drain_deadline)
        self._slots = [_WorkerSlot(i) for i in range(self.workers)]
        self._socket: socket.socket | None = None
        self._draining = False
        self._shutdown = False
        self._reload_requested = False
        self._env = dict(os.environ)
        # Children run `python -m repro.serving.supervisor --worker ...`;
        # make sure they can import repro exactly as this process does
        # (tests run from a source tree, not an installed package).
        self._env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p
        )
        self.stats = {
            "spawns": 0,
            "restarts": 0,
            "heartbeat_kills": 0,
            "not_ready_restarts": 0,
            "rolling_reloads": 0,
        }

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        if self._socket is None:
            raise ReproError("supervisor is not started")
        return self._socket.getsockname()[1]

    def start(self) -> None:
        """Bind the shared listener and spawn the full fleet."""
        if self._socket is not None:
            raise ReproError("supervisor is already started")
        self._socket = make_listen_socket(self.host, self._requested_port)
        for slot in self._slots:
            self._spawn(slot)

    def _spawn(self, slot: _WorkerSlot) -> None:
        read_fd, write_fd = os.pipe()
        config = dict(self._shipped[slot.index])
        config["worker_id"] = f"w{slot.index}"
        config["socket_fd"] = self._socket.fileno()
        config["heartbeat_fd"] = write_fd
        config["heartbeat_interval"] = self.heartbeat_interval
        seed = config["seed"]
        if seed is not None:
            # Distinct sampling streams per slot and per incarnation,
            # still deterministic for a fixed kill schedule.
            config["seed"] = int(seed) + 10_000 * slot.index + slot.spawns
        try:
            # `-c` rather than `-m`: the package's __init__ imports this
            # module, and runpy would warn about the double import.
            slot.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    "import sys; from repro.serving.supervisor import main;"
                    " sys.exit(main(sys.argv[1:]))",
                    "--worker",
                    json.dumps(config),
                ],
                pass_fds=(self._socket.fileno(), write_fd),
                env=self._env,
            )
        finally:
            os.close(write_fd)
        os.set_blocking(read_fd, False)
        slot.hb_fd = read_fd
        slot.hb_buf = b""
        slot.pid = slot.proc.pid
        now = time.monotonic()
        slot.started_at = now
        # A fresh worker gets a full heartbeat_timeout of grace measured
        # from spawn, not from a beat it has not sent yet.
        slot.last_beat = now
        slot.beats = 0
        slot.ready = None
        slot.not_ready_since = None
        slot.restart_at = None
        slot.spawns += 1
        self.stats["spawns"] += 1

    def _close_heartbeat(self, slot: _WorkerSlot) -> None:
        if slot.hb_fd is not None:
            with contextlib.suppress(OSError):
                os.close(slot.hb_fd)
            slot.hb_fd = None
            slot.hb_buf = b""

    # -- heartbeat + supervision pass ----------------------------------
    def _drain_heartbeats(self, slot: _WorkerSlot, now: float) -> None:
        if slot.hb_fd is None:
            return
        closed = False
        try:
            while True:
                chunk = os.read(slot.hb_fd, 65536)
                if not chunk:
                    closed = True
                    break
                slot.hb_buf += chunk
        except BlockingIOError:
            pass
        except OSError:
            closed = True
        *lines, slot.hb_buf = slot.hb_buf.split(b"\n")
        for line in lines:
            if not line:
                continue
            try:
                beat = json.loads(line)
            except ValueError:
                continue
            slot.last_beat = now
            slot.beats += 1
            slot.published = int(beat.get("published", slot.published))
            ready = bool(beat.get("ready", False))
            if ready:
                slot.not_ready_since = None
            elif slot.ready is not False or slot.not_ready_since is None:
                slot.not_ready_since = now
            slot.ready = ready
        if closed:
            self._close_heartbeat(slot)

    def poll(self) -> None:
        """One supervision pass: reap, judge heartbeats, restart.

        Synchronous and cheap — :meth:`run` calls it in a loop, tests
        call it directly to step the supervisor deterministically.
        """
        now = time.monotonic()
        for slot in self._slots:
            self._drain_heartbeats(slot, now)
            proc = slot.proc
            if proc is not None:
                code = proc.poll()
                if code is not None:
                    slot.exits.append(code)
                    slot.proc = None
                    # Collect the final beat (exit-time counters) still
                    # sitting in the pipe before discarding it.
                    self._drain_heartbeats(slot, now)
                    self._close_heartbeat(slot)
                    if not self._draining:
                        if now - slot.started_at >= self.stability_reset:
                            slot.failures = 0
                        delay = min(
                            self.backoff_base * (2 ** slot.failures),
                            self.backoff_cap,
                        )
                        slot.failures += 1
                        slot.restart_at = now + delay
                elif (
                    not self._draining
                    and now - slot.last_beat > self.heartbeat_timeout
                ):
                    # Beating stopped but the process lives: a hung
                    # event loop. SIGKILL now; the exit is reaped (and
                    # the restart scheduled) on the next pass.
                    self.stats["heartbeat_kills"] += 1
                    with contextlib.suppress(ProcessLookupError):
                        proc.kill()
                elif (
                    not self._draining
                    and slot.ready is False
                    and slot.not_ready_since is not None
                    and now - slot.not_ready_since > self.not_ready_timeout
                ):
                    # Alive, honest, and useless (dropped listener, open
                    # breaker, empty store): drain it and let the exit
                    # path respawn a replacement.
                    self.stats["not_ready_restarts"] += 1
                    slot.not_ready_since = now  # do not re-signal each pass
                    with contextlib.suppress(ProcessLookupError):
                        proc.terminate()
            if (
                slot.proc is None
                and not self._draining
                and slot.restart_at is not None
                and now >= slot.restart_at
            ):
                slot.restart_at = None
                self._spawn(slot)
                self.stats["restarts"] += 1

    def probe(
        self, path: str = "/healthz", *, timeout: float = 2.0
    ) -> tuple[int, dict]:
        """One synchronous HTTP GET through the shared listener, for
        callers that want an end-to-end answer: the kernel picks
        whichever worker accepts. The supervisor itself never probes;
        heartbeats decide restarts."""
        with socket.create_connection(
            ("127.0.0.1", self.port), timeout=timeout
        ) as conn:
            conn.sendall(
                f"GET {path} HTTP/1.1\r\nHost: fleet\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1")
            )
            conn.settimeout(timeout)
            data = b""
            while True:
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    break
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        if not head:
            raise ConnectionError("empty response from fleet")
        status = int(head.split(maxsplit=2)[1])
        try:
            payload = json.loads(body) if body else {}
        except ValueError:
            payload = {}
        return status, payload

    # -- steady-state loops --------------------------------------------
    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every slot's worker heartbeats ready (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.poll()
            if all(
                slot.alive() and slot.ready for slot in self._slots
            ):
                return True
            time.sleep(self.heartbeat_interval / 4)
        return False

    def run(
        self,
        *,
        install_signal_handlers: bool = True,
        poll_interval: float = 0.05,
    ) -> None:
        """Supervise until shut down (the ``repro serve --workers`` loop).

        ``SIGTERM``/``SIGINT`` trigger lame-duck draining; ``SIGHUP``
        requests a rolling reload.
        """
        if self._socket is None:
            self.start()
        previous: dict[int, object] = {}
        if install_signal_handlers:
            def _request_stop(signum, frame):  # noqa: ARG001
                self._shutdown = True

            def _request_reload(signum, frame):  # noqa: ARG001
                self._reload_requested = True

            for signum, handler in (
                (signal.SIGTERM, _request_stop),
                (signal.SIGINT, _request_stop),
                (signal.SIGHUP, _request_reload),
            ):
                try:
                    previous[signum] = signal.signal(signum, handler)
                except (ValueError, OSError, AttributeError):
                    continue  # pragma: no cover - non-main thread/platform
        try:
            while not self._shutdown:
                self.poll()
                if self._reload_requested:
                    self._reload_requested = False
                    self.rolling_reload()
                time.sleep(poll_interval)
            self.lame_duck()
        finally:
            for signum, handler in previous.items():
                with contextlib.suppress(ValueError, OSError):
                    signal.signal(signum, handler)

    def request_shutdown(self) -> None:
        self._shutdown = True

    # -- draining and rolling reloads ----------------------------------
    def lame_duck(self, *, drain_deadline: float | None = None) -> None:
        """Stop restarting, drain every worker, close the listener.

        Each worker's own SIGTERM path is the PR 8 graceful drain:
        finish in-flight requests, flush the batcher, group-commit the
        shared WAL. Stragglers past the deadline get ``SIGKILL`` —
        which is budget-safe, because their acked charges are already
        journaled.
        """
        self._draining = True
        deadline = time.monotonic() + (
            self.drain_deadline if drain_deadline is None else drain_deadline
        )
        for slot in self._slots:
            if slot.alive():
                with contextlib.suppress(ProcessLookupError):
                    slot.proc.terminate()
        while time.monotonic() < deadline and any(
            slot.alive() for slot in self._slots
        ):
            self.poll()
            time.sleep(0.02)
        for slot in self._slots:
            if slot.alive():
                with contextlib.suppress(ProcessLookupError):
                    slot.proc.kill()
            if slot.proc is not None:
                with contextlib.suppress(Exception):
                    slot.proc.wait(timeout=2.0)
                slot.exits.append(slot.proc.returncode)
                slot.proc = None
            self._drain_heartbeats(slot, time.monotonic())
            self._close_heartbeat(slot)
        if self._socket is not None:
            with contextlib.suppress(OSError):
                self._socket.close()
            self._socket = None

    def rolling_reload(self, *, ready_timeout: float = 30.0) -> bool:
        """Replace workers one slot at a time (artifact reload).

        Each slot is drained (``SIGTERM``), respawned — the replacement
        re-reads the artifact store, picking up recompiled entries —
        and must heartbeat ready before the next slot is touched, so
        fleet capacity never dips below ``workers - 1``. Returns
        ``False`` if any replacement missed its readiness deadline.
        """
        ok = True
        for slot in self._slots:
            if self._draining or self._shutdown:
                return False
            if slot.alive():
                with contextlib.suppress(ProcessLookupError):
                    slot.proc.terminate()
                with contextlib.suppress(Exception):
                    slot.proc.wait(timeout=self.drain_deadline)
                if slot.alive():
                    with contextlib.suppress(ProcessLookupError):
                        slot.proc.kill()
                    with contextlib.suppress(Exception):
                        slot.proc.wait(timeout=2.0)
                slot.exits.append(slot.proc.returncode)
                slot.proc = None
                self._close_heartbeat(slot)
            self._spawn(slot)
            deadline = time.monotonic() + ready_timeout
            slot_ready = False
            while time.monotonic() < deadline:
                self.poll()
                if slot.alive() and slot.ready:
                    slot_ready = True
                    break
                time.sleep(self.heartbeat_interval / 4)
            ok = ok and slot_ready
        self.stats["rolling_reloads"] += 1
        return ok

    # -- chaos hooks ----------------------------------------------------
    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Deliver ``sig`` to the worker in ``index``'s slot (chaos).

        Returns the victim's pid. The supervision loop will reap the
        corpse and respawn with backoff — the invariant under test is
        that no acked charge is lost and no user passes the floor.
        """
        slot = self._slots[index]
        if not slot.alive():
            raise ReproError(f"slot {index} has no live worker to signal")
        pid = slot.proc.pid
        os.kill(pid, sig)
        return pid

    def status(self) -> dict:
        """A JSON-friendly snapshot for tests and operators."""
        return {
            "workers": self.workers,
            "draining": self._draining,
            "port": None if self._socket is None else self.port,
            "stats": dict(self.stats),
            "slots": [
                {
                    "index": slot.index,
                    "pid": slot.pid,
                    "alive": slot.alive(),
                    "ready": slot.ready,
                    "beats": slot.beats,
                    "published": slot.published,
                    "failures": slot.failures,
                    "spawns": slot.spawns,
                    "exits": list(slot.exits),
                }
                for slot in self._slots
            ],
        }


# -- the worker process ------------------------------------------------


def _worker_spec(worker_config: dict) -> dict:
    """Validate one worker's configuration and return it whole: ``store``,
    ``faults`` and every :class:`ServerConfig` field, JSON-ready."""
    settings = dict(worker_config)
    store = settings.pop("store", None)
    if store is None:
        raise ValidationError("worker_config needs a 'store' path")
    faults = settings.pop("faults", None) or {}
    return {"store": str(store), "faults": faults,
            **ServerConfig.of(settings).to_dict()}


def _build_worker_server(config: dict):
    """Construct this worker's server from the supervisor's JSON config:
    ``store``, ``faults`` and :class:`ServerConfig` fields."""
    from ..release.durable_ledger import DurableLedger
    from .faults import FaultInjector, FaultyFS, fsync_storm
    from .server import MechanismServer

    settings = dict(config)
    store = settings.pop("store")
    storm = (settings.pop("faults", None) or {}).get("fsync_storm")
    server_config = ServerConfig.of(settings)
    ledger = None
    if storm and server_config.ledger_dir:
        # The wal.fsync-storm fleet fault: this worker's WAL rides a
        # FaultyFS armed to fail a burst of fsyncs. The breaker must
        # open; once the storm exhausts, the book's recovery probe
        # through the same seam succeeds.
        faults = FaultInjector()
        fsync_storm(
            faults,
            after=int(storm.get("after", 0)),
            times=int(storm.get("times", 3)),
        )
        ledger = DurableLedger(
            server_config.ledger_dir, server_config.floor,
            fsync=server_config.ledger_fsync, fs=FaultyFS(faults),
        )
    return MechanismServer(store, config=server_config, ledger=ledger)


def _beat(server, ready) -> bytes:
    """One heartbeat line: pid, readiness and the publish count."""
    beat = {
        "pid": os.getpid(),
        "ready": bool(ready),
        "published": server.metrics["published"],
    }
    return (json.dumps(beat) + "\n").encode("utf-8")


async def _heartbeat_loop(server, fd: int, interval: float) -> None:
    """Write one JSON heartbeat line per interval to the supervisor.

    ``ready`` folds the server's own readiness with "is the listener
    actually serving" — the signal the listener-drop chaos relies on. A
    full pipe skips a beat (the supervisor is slow, not dead); a broken
    pipe ends the loop but never the worker (it keeps draining traffic
    even if the supervisor died).
    """
    os.set_blocking(fd, False)
    while True:
        http = server._http_server
        listening = http is not None and http.is_serving()
        try:
            os.write(fd, _beat(server, listening and server.readiness()[0]))
        except BlockingIOError:
            pass
        except OSError:
            return
        await asyncio.sleep(interval)


async def _worker_serve(config: dict) -> None:
    config = dict(config)
    sock_fd = config.pop("socket_fd")
    hb_fd = config.pop("heartbeat_fd", None)
    hb_interval = config.pop("heartbeat_interval", 0.25)
    server = _build_worker_server(config)
    server.load_store()
    sock = socket.socket(fileno=sock_fd)
    sock.setblocking(False)
    await server.start(sock=sock)
    tasks = []
    if hb_fd is not None:
        tasks.append(
            asyncio.create_task(_heartbeat_loop(server, hb_fd, hb_interval))
        )
    drop_after = (config.get("faults") or {}).get("listener_drop_after_s")
    dropped = asyncio.Event()
    if drop_after:
        # The worker.listener-drop fleet fault: the process stays alive
        # and keeps beating, but stops accepting — the supervisor must
        # notice via ready=False and replace it.
        def _drop() -> None:
            if server._http_server is not None:
                server._http_server.close()
            dropped.set()

        asyncio.get_running_loop().call_later(float(drop_after), _drop)
    try:
        await server.serve_forever(install_signal_handlers=True)
        if dropped.is_set() and not server._shutdown.is_set():
            # The injected fault ended serve_forever, not a shutdown
            # request: simulate the real failure (accept loop dead,
            # event loop alive) by beating not-ready until the
            # supervisor drains this worker.
            await asyncio.Event().wait()
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        # Flush the batcher and group-commit tail, close the shared
        # ledger cleanly — the drain half of lame-duck lives here.
        with contextlib.suppress(Exception):
            await server.stop()
        if hb_fd is not None:
            # One final beat with the settled counters, so the
            # supervisor's last pipe drain sees this worker's true
            # published total (the periodic loop was just cancelled).
            with contextlib.suppress(OSError):
                os.write(hb_fd, _beat(server, False))


def _worker_main(config: dict) -> int:
    asyncio.run(_worker_serve(config))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serving.supervisor",
        description="Fleet worker entry point (internal).",
    )
    parser.add_argument(
        "--worker",
        help="internal: JSON worker config from the supervisor",
    )
    args = parser.parse_args(argv)
    if not args.worker:
        parser.error(
            "this module only runs as a supervised worker; start a fleet "
            "with `repro serve --workers N`"
        )
    return _worker_main(json.loads(args.worker))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
