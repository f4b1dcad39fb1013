"""Per-user privacy budgets: one book, in memory or crash-safe on disk.

Independent releases compose multiplicatively (Section 2.6: the joint
guarantee is the product of the alphas, epsilons add), so all a serving
book keeps per user is ``(cum, releases, last_alpha)``. A charge is one
exact multiply and one compare against the floor; only an admitted
charge creates a user's state, and the remaining allowance is derived
only when someone reads it.

A user's distance to the floor therefore changes only when that user
is charged, so the book also keeps the two aggregates a metrics scrape
publishes — how many users are within 1, 2, 4, 8 charges of the floor,
and the ten top burners — and :meth:`MemoryLedgerBook.burn_summary`
reads them without walking the users. They are derived, never
persisted: the first read after the users are (re)loaded builds them
with one walk, and from then on every credit moves its one user. A
book nobody scrapes never builds them and pays nothing.

* :class:`MemoryLedgerBook` — the book with no journal. Budgets die
  with the process: the serving default only when no ``--ledger-dir``
  is given.
* :class:`DurableLedger` — the same book with a write-ahead log. An
  in-memory book resets when the process dies, silently refilling every
  user's budget — a *privacy violation*, not an availability bug — so
  every charge is appended to ``wal.jsonl`` (one checksummed JSON
  record per line, exact ``Fraction`` serialization) and — in the
  default ``fsync="always"`` mode — fsync'd **before** the charge is
  acknowledged, so a response is only ever released against a durable
  charge. ``fsync="group"`` defers the fsync to an explicit
  :meth:`DurableLedger.sync` so a serving tick can amortize one fsync
  across a whole micro-batch (group commit) while keeping the same
  release-implies-durable invariant.
* **Conservative recovery** — one replay reads a ledger directory: the
  snapshot, then every journal record past it, each applied by the
  book's one apply rule, which refuses a charge whose ``cum`` is not
  the running product of the user's alphas. The book's open, its
  catch-up on siblings' appends, the WAL breaker's recovery,
  :func:`verify_ledger_dir` and the at-rest reads all go through it. A
  torn or corrupt *tail* (a crash mid-append) is truncated on open: an
  un-fsync'd charge was never acknowledged, so no response was released
  against it and dropping it is floor-legal. A record that parses and
  checksums, however, is **always kept**, even when the crash means we
  cannot know whether the response went out — ambiguity over-protects,
  never over-spends. Corruption *before* valid records (a damaged
  middle), a sequence gap, a contradicting ``cum`` and a snapshot or
  ``meta.json`` of another format version are refused loudly with
  :class:`LedgerCorruptionError`, because skipping them would drop or
  misstate admitted charges.
* **Snapshot + compaction** — :meth:`DurableLedger.compact` atomically
  writes ``snapshot.json`` (checksummed; cumulative guarantee and
  release count per user, plus the idempotency replay cache) and then
  truncates the journal. A crash between the two is safe: replay skips
  journal records at or below the snapshot's sequence number. The book
  compacts itself once the journal holds at least ``snapshot_every``
  appends *and* at least as many bytes as the last snapshot, so the
  rewrite of every user is paid for by a journal as large as it, and
  recovery replays at most about one snapshot's worth of journal.
* **Multi-process sharing** — every mutation holds an advisory
  ``flock`` on ``ledger.lock`` and first catches up on records appended
  by sibling processes (incremental from the last applied byte offset),
  so N serving workers charge one ledger with a single floor. The
  at-rest reads (:func:`replay_ledger_dir`: ``repro ledger verify`` /
  ``show`` and ``repro obs top --ledger-dir``) change nothing: they hold
  the same ``flock`` shared while they replay, open the existing
  ``ledger.lock`` but never create it, and refuse a path with no
  ``meta.json`` as holding no ledger.
* **Idempotency** — a charge may carry an idempotency key; the key and
  the eventual response are journaled, so a retried publish is answered
  from the replay cache instead of double-charging the budget
  (:class:`ChargeDecision` outcome ``"replayed"``; a key whose charge
  was journaled but whose response was lost in a crash resolves as
  ``"pending"`` — charged once, safe to re-sample).
* **Volatile mode** — the serving WAL breaker's memory policy. After
  :meth:`DurableLedger.go_volatile` the book charges in memory (the
  floor keeps binding where it stood) and queues each user's product of
  admitted alphas plus the idempotency entries made during the outage.
  :meth:`DurableLedger.recover`, the breaker's half-open probe, reopens
  the WAL through the book's own :class:`LedgerFS`, reloads, probes,
  and journals one ``backfill:wal-outage`` charge per queued user (with
  no floor check: those releases were already served) and the queued
  entries as ``result`` records — so a sibling's charges made during
  the outage are kept and a retried key replays instead of re-charging.

Filesystem access goes through the :class:`repro.storage.LedgerFS`
seam (``snapshot.json`` and ``meta.json`` are replaced by
:func:`repro.storage.write_durable`, the writer of every durable file)
and crash points through a fault-injector hook, so the chaos suite
(:mod:`repro.serving.faults`) can deterministically kill the process at
``charge.before-append`` / mid-append (torn write) /
``charge.before-fsync`` / ``charge.after-fsync`` and assert the
recovery invariants.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

try:  # pragma: no cover - fcntl exists on every POSIX we target
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..core.privacy import alpha_to_epsilon
from ..exceptions import ReproError
from ..obs.budget import FAR, NEAR_FLOOR, burn_position
from ..obs.metrics import FOLD_CAP, LatencyLog
from ..obs.tracing import current_trace, span
from ..storage import REAL_FS, LedgerFS, write_durable
from ..validation import check_alpha
from .ledger import allowance, check_floor

__all__ = [
    "ChargeDecision",
    "DurableLedger",
    "LedgerCorruptionError",
    "LedgerFS",
    "LedgerUnavailableError",
    "MemoryLedgerBook",
    "UserBudget",
    "replay_ledger_dir",
    "verify_ledger_dir",
]

#: Journal fsync policies. ``always`` fsyncs inside every append (the
#: standalone-safe default); ``group`` defers to :meth:`DurableLedger.sync`
#: (the serving tick calls it once per micro-batch flush, before any
#: response of that batch is released); ``off`` never fsyncs (benchmark
#: baseline only — crash durability is then up to the OS page cache).
FSYNC_MODES = ("always", "group", "off")

_WAL_NAME = "wal.jsonl"
_SNAPSHOT_NAME = "snapshot.json"
_META_NAME = "meta.json"
_LOCK_NAME = "ledger.lock"
_FORMAT_VERSION = 1

#: How many top burners the scrape aggregates rank.
_TOP = 10


class LedgerUnavailableError(ReproError):
    """The durable ledger cannot currently persist charges (disk full,
    fsync failure, or a prior injected crash); the charge was NOT
    recorded."""


class LedgerCorruptionError(ReproError):
    """The journal or snapshot is damaged in a way recovery must not
    paper over (corruption *before* valid records would drop admitted
    charges)."""


class _NoFaults:
    """Zero-overhead default for the crash-point hook."""

    __slots__ = ()

    def crash(self, point: str) -> None:
        return None


NO_FAULTS = _NoFaults()


@dataclass(frozen=True)
class UserBudget:
    """A read-only statement of one user's accounting.

    ``last_alpha`` is the user's last charged alpha, or ``None`` when
    only a compacted total is known. It only projects future charges,
    so it is not part of equality: a book and its reopened copy agree
    even though a compaction keeps only the totals.
    """

    user: str
    releases: int
    floor: object
    cumulative_alpha: object
    last_alpha: object = field(compare=False)

    @property
    def remaining_alpha(self):
        return allowance(self.cumulative_alpha, self.floor)

    @property
    def cumulative_epsilon(self) -> float:
        return alpha_to_epsilon(max(self.cumulative_alpha, 0))


@dataclass(frozen=True)
class ChargeDecision:
    """The outcome of a charge-or-reject against a ledger book.

    ``outcome`` is one of:

    * ``"charged"`` — the charge was admitted (and, for a durable book,
      journaled; under ``fsync="always"`` it is already on disk);
    * ``"rejected"`` — admitting it would cross the floor; nothing was
      recorded;
    * ``"replayed"`` — the idempotency key was already charged *and* its
      response recorded: ``replay`` holds the original ``(status,
      response)`` and no budget was spent;
    * ``"pending"`` — the key was charged but no response was recorded
      (a crash or lost reply); the budget is already spent, so the
      caller should produce a fresh response *without* charging again.
    """

    outcome: str
    user: str
    cumulative_alpha: object
    floor: object
    replay: tuple | None = None

    @property
    def charged(self) -> bool:
        return self.outcome == "charged"

    @property
    def remaining_alpha(self):
        return allowance(self.cumulative_alpha, self.floor)


def _encode_record(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = format(zlib.crc32(body.encode("utf-8")), "08x")
    framed = dict(record)
    framed["crc"] = crc
    return (
        json.dumps(framed, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        + b"\n"
    )


def _decode_record(line: bytes) -> dict | None:
    """Parse and checksum one journal line; ``None`` = torn/corrupt."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(obj, dict):
        return None
    crc = obj.pop("crc", None)
    body = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if crc != format(zlib.crc32(body.encode("utf-8")), "08x"):
        return None
    if not isinstance(obj.get("seq"), int):
        return None
    return obj


def _scan_wal(data: bytes, *, start_seq: int | None = None):
    """Walk the journal bytes record by record.

    Returns ``(records, good_size, torn_bytes, failure)``:

    * ``records`` — every valid record, in order;
    * ``good_size`` — byte length of the valid prefix;
    * ``torn_bytes`` — trailing bytes that failed to parse/checksum
      (``0`` when the journal is clean);
    * ``failure`` — a human-readable reason when the damage is **not** a
      clean tail (valid records exist after the bad region), i.e. real
      corruption recovery must refuse to skip.
    """
    records: list[dict] = []
    offset = 0
    previous_seq = start_seq
    n = len(data)
    while offset < n:
        newline = data.find(b"\n", offset)
        if newline < 0:
            # Unterminated final line: a torn append.
            return records, offset, n - offset, None
        line = data[offset:newline]
        record = _decode_record(line) if line else None
        if record is None or (
            previous_seq is not None and record["seq"] != previous_seq + 1
        ):
            remainder = data[newline + 1:]
            for tail_line in remainder.split(b"\n"):
                if tail_line and _decode_record(tail_line) is not None:
                    return (
                        records,
                        offset,
                        n - offset,
                        f"corrupt record at byte {offset} precedes "
                        f"{len(records)} valid trailing record(s)",
                    )
            return records, offset, n - offset, None
        records.append(record)
        previous_seq = record["seq"]
        offset = newline + 1
    return records, offset, 0, None


def _read_checked_json(path: Path) -> dict | None:
    """Read ``meta.json`` or ``snapshot.json``; ``None`` when missing,
    raises :class:`LedgerCorruptionError` when damaged or of another
    format version."""
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        return None
    record = _decode_record(data.strip())
    if record is None:
        raise LedgerCorruptionError(f"{path} is corrupt (checksum mismatch)")
    if record.get("version") != _FORMAT_VERSION:
        raise LedgerCorruptionError(
            f"{path}: ledger format version {record.get('version')!r} is "
            f"not {_FORMAT_VERSION}"
        )
    return record


class _ReplayCache:
    """Bounded idempotency-key cache.

    Entries are ``{"user", "status", "response"}``; ``status is None``
    marks a *pending* charge (journaled, response not yet recorded).
    Pending entries are never evicted — dropping one would let a retry
    double-charge; completed entries age out FIFO past ``cap``.
    """

    def __init__(self, cap: int) -> None:
        self.cap = int(cap)
        self._entries: OrderedDict[str, dict] = OrderedDict()

    def get(self, idem: str) -> dict | None:
        return self._entries.get(idem)

    def record(self, idem, user, status=None, response=None) -> None:
        """Store an entry; the default is a pending charge."""
        self.put(
            idem, {"user": user, "status": status, "response": response}
        )

    def put(self, idem: str, entry: dict) -> None:
        self._entries[idem] = entry
        self._entries.move_to_end(idem)
        while len(self._entries) > self.cap:
            for key, value in self._entries.items():
                if value.get("status") is not None:
                    del self._entries[key]
                    break
            else:
                break

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as err:
        raise LedgerCorruptionError(
            f"unparseable exact fraction {text!r}: {err}"
        ) from None


class _UserState:
    """One user's budget: all that composition, the 429 body and burn
    projection need, plus the user's charges-left bucket while the
    book's scrape aggregates are built."""

    __slots__ = ("cum", "releases", "last_alpha", "near")

    def __init__(self, cum, releases, last_alpha) -> None:
        self.cum = cum
        self.releases = releases
        self.last_alpha = last_alpha
        self.near = None


class MemoryLedgerBook:
    """The per-user budget book with no journal, plus an in-memory
    idempotency replay cache. Budgets die with the process — the
    serving default only when no ``--ledger-dir`` is given.

    Every method is safe to call from many threads: one lock serializes
    each read-modify-write, so racers can never both pass the floor
    check for the last slot of a budget.
    """

    durable = False

    def __init__(self, floor=0, *, replay_cap: int = 65536) -> None:
        self.floor = Fraction(check_floor(floor))
        self._users: dict[str, _UserState] = {}
        self._replay = _ReplayCache(replay_cap)
        self._lock = threading.Lock()
        # The scrape aggregates (None until the first burn_summary):
        # users per charges-left bucket 0..FAR (see burn_position), and
        # the top burners as sorted (-spent_fraction, user) keys.
        self._near: list[int] | None = None
        self._top: list[tuple] | None = None
        # Journal timings, read by a server's scrape (empty here).
        self.append_latency = LatencyLog()
        self.fsync_latency = LatencyLog()

    # -- the journal hooks (no journal here) ----------------------------
    def _exclusive(self):
        return self._lock

    def _journal_charge(self, user, alpha, cum, label, idem) -> None:
        pass

    def _journal_result(self, idem, user, status, response) -> None:
        pass

    def _maybe_compact(self) -> None:
        pass

    # -- the book --------------------------------------------------------
    def charge(
        self, user: str, alpha, *, label: str = "release", idem=None
    ) -> ChargeDecision:
        """Charge-or-reject a release at ``alpha`` against ``user``'s
        budget; a known idempotency key answers from the replay cache
        instead of charging again."""
        check_alpha(alpha)
        alpha = Fraction(alpha)
        with self._exclusive():
            if idem is not None:
                hit = self._replay.get(idem)
                if hit is not None:
                    return self._replay_decision(user, hit)
            state = self._users.get(user)
            cum = alpha if state is None else state.cum * alpha
            if cum < self.floor:
                return ChargeDecision(
                    "rejected", user,
                    Fraction(1) if state is None else state.cum, self.floor,
                )
            self._journal_charge(user, alpha, cum, label, idem)
            self._credit(state, user, cum, alpha)
            if idem is not None:
                self._replay.record(idem, user)
            self._maybe_compact()
            return ChargeDecision("charged", user, cum, self.floor)

    def _credit(self, state, user, cum, alpha) -> None:
        """The book's one mutation point: a charge, a catch-up replay
        and a backfill all land here, and so does the upkeep of the
        scrape aggregates once they are built."""
        if state is None:
            state = self._users[user] = _UserState(cum, 1, alpha)
            old = None
        else:
            old = state.near
            state.cum = cum
            state.releases += 1
            state.last_alpha = alpha
        if self._near is not None:
            self._place(user, state, old)

    def _place(self, user, state, old) -> None:
        """Move one user within the scrape aggregates (``old`` is their
        previous bucket, ``None`` when they were not counted yet)."""
        spent, near = burn_position(
            state.cum, self.floor, state.releases, state.last_alpha
        )
        counts = self._near
        if old is not None:
            counts[old] -= 1
        counts[near] += 1
        state.near = near
        # A credit only lowers cum, so a user's key only ever improves:
        # nobody outside the top can enter it except the user credited.
        top, key = self._top, (-spent, user)
        if len(top) < _TOP or key < top[-1]:
            for i, (_, name) in enumerate(top):
                if name == user:
                    del top[i]
                    break
            bisect.insort(top, key)
            del top[_TOP:]

    def _apply(self, record: dict) -> None:
        """Apply one journal record: the only rule a replay applies by.

        A charge's ``cum`` must be the running product of the user's
        alphas; a record that contradicts it is refused with
        :class:`LedgerCorruptionError` before it changes anything.
        Unknown ops are ignored for forward compatibility.
        """
        op = record.get("op")
        if op == "charge":
            user = record["user"]
            state = self._users.get(user)
            alpha, cum = _fraction(record["alpha"]), _fraction(record["cum"])
            expected = alpha if state is None else state.cum * alpha
            if cum != expected:
                raise LedgerCorruptionError(
                    f"seq {record['seq']}: cumulative {cum} does not equal "
                    f"running product {expected} for user {user!r}"
                )
            self._credit(state, user, cum, alpha)
            idem = record.get("idem")
            if idem is not None:
                existing = self._replay.get(idem)
                if existing is None or existing.get("status") is None:
                    self._replay.record(idem, user)
        elif op == "result":
            self._replay.record(
                record["idem"], record.get("user"), record.get("status"),
                record.get("response"),
            )

    def _replay_decision(self, user, hit) -> ChargeDecision:
        state = self._users.get(hit.get("user") or user)
        cum = Fraction(1) if state is None else state.cum
        if hit.get("status") is not None:
            return ChargeDecision(
                "replayed", user, cum, self.floor,
                replay=(hit["status"], hit["response"]),
            )
        return ChargeDecision("pending", user, cum, self.floor)

    def record_result(self, idem: str, status: int, response: dict) -> None:
        """Attach the released response to its idempotency key.

        Best-effort relative to the charge itself: losing this record in
        a crash downgrades a future retry from ``"replayed"`` to
        ``"pending"`` (re-sample, never re-charge).
        """
        with self._exclusive():
            user = (self._replay.get(idem) or {}).get("user")
            self._journal_result(idem, user, int(status), response)
            self._replay.record(idem, user, int(status), response)
            self._maybe_compact()

    def _budget(self, user, state) -> UserBudget:
        return UserBudget(
            user, state.releases, self.floor, state.cum, state.last_alpha
        )

    def view(self, user: str) -> UserBudget | None:
        """One user's budget, or ``None`` when nothing was charged."""
        with self._exclusive():
            state = self._users.get(user)
            return None if state is None else self._budget(user, state)

    def budgets(self) -> list[UserBudget]:
        """Every user's budget from one consistent read — one lock (and,
        for a durable book, one flock and one catch-up) for all."""
        with self._exclusive():
            return [
                self._budget(user, state)
                for user, state in self._users.items()
            ]

    def burn_summary(self) -> tuple[dict, list]:
        """What a metrics scrape publishes about budget burn, in O(1).

        Returns ``({k: users within k charges of the floor for k in
        NEAR_FLOOR}, [(user, spent_fraction) of the top burners]``,
        equal to ``floor_proximity(burn_rows_from_book(book))`` and the
        head of ``burn_rows_from_book(book)``. The first call after the
        users are (re)loaded builds the aggregates with one walk; every
        credit keeps them current after that.
        """
        with self._exclusive():
            if self._near is None:
                self._near, self._top = [0] * (FAR + 1), []
                for user, state in self._users.items():
                    self._place(user, state, None)
            counts = self._near
            return (
                {k: sum(counts[: k + 1]) for k in NEAR_FLOOR},
                [(user, -neg) for neg, user in self._top],
            )

    def users(self) -> int:
        with self._exclusive():
            return len(self._users)

    def sync(self) -> None:
        """Nothing to flush — memory books are as durable as they get."""

    def close(self) -> None:
        pass

    def stats(self) -> dict:
        return {
            "backend": "memory",
            "users": len(self._users),
            "replay_entries": len(self._replay),
        }

    def __repr__(self) -> str:
        return (
            f"<MemoryLedgerBook users={len(self._users)} floor={self.floor}>"
        )


class DurableLedger(MemoryLedgerBook):
    """The budget book backed by a checksummed, fsync'd, append-only
    JSONL write-ahead log (see the module docstring for the protocol,
    the recovery semantics and volatile mode).

    Parameters
    ----------
    directory:
        The ledger directory (created if missing): ``wal.jsonl``,
        ``snapshot.json``, ``meta.json``, ``ledger.lock``.
    floor:
        Per-user privacy floor. ``None`` adopts the floor persisted in
        ``meta.json`` (0 for a fresh directory); an explicit value
        overrides and re-persists it.
    fsync:
        One of :data:`FSYNC_MODES`.
    snapshot_every:
        The fewest journal appends between auto-compactions (``0``
        disables them; :meth:`compact` always works explicitly). Past
        that minimum the book waits until the journal holds at least as
        many bytes as the last snapshot (0 when there is none), so a
        book with many users compacts in proportion to its size instead
        of rewriting every user each ``snapshot_every`` charges.
    replay_cap:
        Bound on completed idempotency-replay entries held (pending
        charges are never evicted).
    fs / faults:
        The filesystem seam and crash-point hook for fault injection.
    """

    durable = True

    def __init__(
        self,
        directory,
        floor=None,
        *,
        fsync: str = "always",
        snapshot_every: int = 4096,
        replay_cap: int = 65536,
        fs: LedgerFS | None = None,
        faults=None,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise ReproError(
                f"fsync must be one of {FSYNC_MODES}, got {fsync!r}"
            )
        self.path = Path(directory).expanduser()
        self._fs = fs if fs is not None else REAL_FS
        self._faults = faults if faults is not None else NO_FAULTS
        self._mode = fsync
        self._fsyncs = 0
        self._compactions = 0
        self._last_fsync_s: float | None = None
        self.snapshot_every = int(snapshot_every)
        self._wal_path = self.path / _WAL_NAME
        self._snapshot_path = self.path / _SNAPSHOT_NAME
        self._wal = None
        self._lock_handle = None
        self._seq = 0
        self._snapshot_seq = 0
        self._size = 0
        self._snap_stat: tuple | None = None
        self._appends_since_snapshot = 0
        self._dirty = False
        self._failed: str | None = None
        self._closed = False
        # Volatile mode: per-user product of the alphas admitted while
        # the WAL was unavailable (``None`` = durable), and the
        # idempotency keys touched meanwhile.
        self._outage: dict[str, Fraction] | None = None
        self._outage_keys: dict[str, None] = {}
        super().__init__(self._resolve_floor(floor), replay_cap=replay_cap)
        with self._exclusive():
            pass  # recovery happens in the catch-up under the first lock

    # -- metadata ------------------------------------------------------
    def _resolve_floor(self, floor):
        meta = _read_checked_json(self.path / _META_NAME)
        stored = None if meta is None else _fraction(meta["floor"])
        if floor is None:
            floor = stored if stored is not None else 0
        floor = Fraction(check_floor(floor))
        if stored is None or stored != floor:
            self.path.mkdir(parents=True, exist_ok=True)
            write_durable(
                self.path / _META_NAME,
                _encode_record({"version": _FORMAT_VERSION, "seq": 0,
                                "floor": str(floor)}),
                self._fs,
            )
        return floor

    # -- locking and cross-process catch-up ----------------------------
    def _flock(self):
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return
        if self._lock_handle is None:
            self._lock_handle = open(self.path / _LOCK_NAME, "a+")
        fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_EX)

    def _funlock(self):
        if fcntl is None or self._lock_handle is None:  # pragma: no cover
            return
        fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)

    @contextlib.contextmanager
    def _exclusive(self):
        with self._lock:
            if self._closed:
                raise LedgerUnavailableError("ledger is closed")
            if self._outage is not None:
                # Volatile: the WAL is gone, the book charges in memory.
                yield
                return
            if self._failed:
                raise LedgerUnavailableError(self._failed)
            self._flock()
            try:
                self._catch_up()
                yield
            except BaseException as err:
                if not isinstance(err, (Exception, GeneratorExit)):
                    # A simulated (or real) crash mid-protocol: this
                    # in-process instance no longer matches the disk.
                    # Refuse further use; recovery = open a new ledger.
                    self._failed = f"crashed mid-operation: {err!r}"
                raise
            finally:
                self._funlock()

    def _wal_handle(self):
        if self._wal is None:
            self._wal = self._fs.open_append(self._wal_path)
        return self._wal

    def _drop_wal(self) -> None:
        if self._wal is not None:
            with contextlib.suppress(OSError):
                self._wal.close()
            self._wal = None

    def _stat_snapshot(self):
        try:
            stat = os.stat(self._snapshot_path)
        except FileNotFoundError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _catch_up(self) -> None:
        """Apply whatever sibling processes appended since our offset.

        A record refused here (a sibling's charge that contradicts its
        alphas) is never applied, and the book serves no budget after
        it: every later call refuses too — it re-reads the directory in
        full and meets the same record — until the directory is
        repaired.
        """
        try:
            wal_size = os.path.getsize(self._wal_path)
        except FileNotFoundError:
            wal_size = 0
        if wal_size == self._size and self._stat_snapshot() == self._snap_stat:
            return
        if wal_size > self._size and self._stat_snapshot() == self._snap_stat:
            with open(self._wal_path, "rb") as handle:
                handle.seek(self._size)
                data = handle.read()
            records, good, torn, failure = _scan_wal(
                data, start_seq=self._seq
            )
            if failure is None and not (torn and records == []):
                if torn:
                    self._truncate_wal(self._size + good)
                for record in records:
                    self._apply(record)
                    self._seq = record["seq"]
                self._size += good
                return
        self._reload()

    def _truncate_wal(self, size: int) -> None:
        handle = self._wal_handle()
        self._fs.truncate(handle, size)
        if self._mode != "off":
            self._fs.fsync(handle)

    def _reload(self) -> None:
        """Full recovery: the one replay, into a fresh book; then
        truncate a torn tail and adopt what it read. A refusal leaves
        this book as it was."""
        book = MemoryLedgerBook(self.floor, replay_cap=self._replay.cap)
        found: dict = {}
        _replay(self.path, book, found)
        if found["torn_tail_bytes"]:
            self._truncate_wal(found["journal_bytes"])
        self._users, self._replay = book._users, book._replay
        self._near = self._top = None  # rebuilt by the next scrape
        self._seq, self._snapshot_seq = found["seq"], found["snapshot_seq"]
        self._size = found["journal_bytes"]
        self._snap_stat = self._stat_snapshot()

    # -- the append protocol -------------------------------------------
    def _append(self, record: dict) -> None:
        """Append one record; on I/O failure roll back to the last
        known-good journal length so the ledger stays usable."""
        line = _encode_record(record)
        handle = self._wal_handle()
        start = self._size
        # Untraced requests (the vast majority at low sampling rates)
        # must not pay for span machinery on every charge — one C-level
        # ContextVar read decides; the timings stay unconditional.
        traced = current_trace() is not None
        try:
            t0 = time.perf_counter()
            if traced:
                with span("wal.append", seq=record["seq"]):
                    self._fs.write(handle, line)
            else:
                self._fs.write(handle, line)
            # Deferred: one list append here, bucketed at scrape time.
            pending = self.append_latency.pending
            pending.append(time.perf_counter() - t0)
            if len(pending) >= FOLD_CAP:
                self.append_latency.fold()
            self._faults.crash("charge.before-fsync")
            if self._mode == "always":
                t1 = time.perf_counter()
                if traced:
                    with span("wal.fsync", mode="always"):
                        self._fs.fsync(handle)
                else:
                    self._fs.fsync(handle)
                self._last_fsync_s = time.perf_counter() - t1
                self._fsyncs += 1
                self.fsync_latency.add(self._last_fsync_s)
            elif self._mode == "group":
                self._dirty = True
        except OSError as err:
            try:
                self._fs.truncate(handle, start)
                if self._mode != "off":
                    self._fs.fsync(handle)
            except OSError as rollback_err:
                self._failed = (
                    f"journal rollback failed ({rollback_err}) after a "
                    f"failed append ({err}); the ledger is read-only"
                )
                raise LedgerUnavailableError(self._failed) from err
            raise LedgerUnavailableError(
                f"could not persist the charge: {err}"
            ) from err
        self._size = start + len(line)
        self._seq = record["seq"]
        self._appends_since_snapshot += 1

    def _fsync_wal(self, what: str) -> None:
        """fsync the journal now, whatever the mode; a failure makes
        the instance refuse further writes."""
        try:
            self._fs.fsync(self._wal_handle())
        except OSError as err:
            self._failed = f"{what} fsync failed: {err}"
            raise LedgerUnavailableError(self._failed) from err
        self._dirty = False
        self._fsyncs += 1

    # -- the journal hooks ---------------------------------------------
    def _journal_charge(self, user, alpha, cum, label, idem) -> None:
        if self._outage is not None:
            self._outage[user] = self._outage.get(user, 1) * alpha
            if idem is not None:
                self._outage_keys[idem] = None
            return
        record = {
            "op": "charge",
            "seq": self._seq + 1,
            "user": user,
            "alpha": str(alpha),
            "cum": str(cum),
            "label": label,
        }
        if idem is not None:
            record["idem"] = idem
        self._faults.crash("charge.before-append")
        self._append(record)
        self._faults.crash("charge.after-fsync")

    def _journal_result(self, idem, user, status, response) -> None:
        if self._outage is not None:
            self._outage_keys[idem] = None
            return
        self._faults.crash("result.before-append")
        self._append({
            "op": "result",
            "seq": self._seq + 1,
            "idem": idem,
            "user": user,
            "status": status,
            "response": response,
        })

    def sync(self) -> None:
        """Group commit: fsync everything appended since the last sync.

        Under ``fsync="group"`` the serving tick calls this once per
        micro-batch flush, *before* any response of the batch is
        released — one fsync amortized over the whole batch. A no-op
        while volatile.
        """
        with self._lock:
            if self._outage is not None:
                return
            if self._failed:
                raise LedgerUnavailableError(self._failed)
            if self._dirty and self._wal is not None:
                t0 = time.perf_counter()
                # Inside a micro-batch execute this span is batch-scoped:
                # it lands in every traced request whose charge this
                # fsync commits.
                with span("wal.fsync", mode="group"):
                    self._fsync_wal("group-commit")
                self._last_fsync_s = time.perf_counter() - t0
                self.fsync_latency.add(self._last_fsync_s)

    # -- volatile mode -------------------------------------------------
    def go_volatile(self) -> None:
        """Keep charging in memory while the WAL cannot persist.

        The floor keeps binding exactly where the book stood (including
        charges whose fsync failed — ambiguity over-protects); each
        admitted alpha and touched idempotency key is queued for
        :meth:`recover` to journal. Idempotent.
        """
        with self._lock:
            if self._outage is None:
                self._outage = {}
                self._outage_keys = {}

    def recover(self) -> None:
        """The breaker's half-open probe: restore durable charging.

        Reopens the journal through the book's own :class:`LedgerFS`,
        reloads snapshot and journal (so a sibling's charges made during
        the outage count), and proves the WAL writable with one probe
        record and an unconditional fsync (even under ``fsync="off"``).
        Then journals one ``backfill:wal-outage`` charge per queued user
        — no floor check: those releases were already served; it counts
        as one release — and the queued idempotency entries as
        ``result`` records, so a retry replays (or resolves ``pending``)
        instead of re-charging.

        Raises :class:`LedgerUnavailableError` (or
        :class:`LedgerCorruptionError`) when the WAL is still unusable;
        a volatile book then stays volatile with its queue, minus
        whatever was journaled before the failure.
        """
        with self._lock:
            if self._closed:
                raise LedgerUnavailableError("ledger is closed")
            volatile = self._outage is not None
            saved = self._users, self._replay
            outage, keys = self._outage or {}, self._outage_keys
            self._outage = self._failed = None
            self._drop_wal()
            self._flock()
            try:
                self._reload()
                self._append({"op": "probe", "seq": self._seq + 1})
                self._fsync_wal("probe")
                for user, alpha in list(outage.items()):
                    state = self._users.get(user)
                    cum = alpha if state is None else state.cum * alpha
                    self._journal_charge(
                        user, alpha, cum, "backfill:wal-outage", None
                    )
                    self._credit(state, user, cum, alpha)
                    del outage[user]
                for idem in list(keys):
                    entry = saved[1].get(idem)
                    if entry is not None:  # None: aged out of the cache
                        self._journal_result(
                            idem, entry["user"], entry["status"],
                            entry["response"],
                        )
                        self._replay.put(idem, entry)
                    del keys[idem]
                if self._dirty:
                    self._fsync_wal("backfill")
            except BaseException as err:
                if volatile:
                    # Keep serving from the outage's in-memory books; the
                    # next probe reloads again.
                    self._outage, self._outage_keys = outage, keys
                    self._users, self._replay = saved
                    self._near = self._top = None
                elif not self._failed:
                    self._failed = f"recovery failed: {err!r}"
                raise
            finally:
                self._funlock()

    # -- snapshot + compaction -----------------------------------------
    def _maybe_compact(self) -> None:
        if (
            self.snapshot_every > 0
            and self._appends_since_snapshot >= self.snapshot_every
            and self._size >= (self._snap_stat or (0, 0))[1]
            and self._outage is None
        ):
            self._compact_locked()

    def compact(self) -> dict:
        """Snapshot the state and truncate the journal; returns stats."""
        with self._exclusive():
            if self._outage is not None:
                raise LedgerUnavailableError(
                    "the ledger is volatile (WAL outage); nothing to compact"
                )
            before = self._size
            self._compact_locked()
            return {
                "snapshot_seq": self._snapshot_seq,
                "journal_bytes_before": before,
                "journal_bytes_after": self._size,
                "users": len(self._users),
            }

    def _compact_locked(self) -> None:
        if self._dirty:
            self._fs.fsync(self._wal_handle())
            self._dirty = False
        payload = {
            "version": _FORMAT_VERSION,
            "seq": self._seq,
            "floor": str(self.floor),
            "users": {
                user: {"cum": str(state.cum), "releases": state.releases}
                for user, state in self._users.items()
            },
            "replay": {idem: entry for idem, entry in self._replay.items()},
        }
        write_durable(self._snapshot_path, _encode_record(payload), self._fs)
        self._faults.crash("compact.after-snapshot")
        self._truncate_wal(0)
        self._size = 0
        self._snapshot_seq = self._seq
        self._appends_since_snapshot = 0
        self._snap_stat = self._stat_snapshot()
        self._compactions += 1

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Flush pending bytes and release the journal handle."""
        with self._lock:
            self._closed = True
            if self._wal is not None and self._dirty and not self._failed:
                with contextlib.suppress(OSError, ValueError):
                    self._fs.fsync(self._wal)
            self._drop_wal()
            if self._lock_handle is not None:
                with contextlib.suppress(OSError):
                    self._lock_handle.close()
                self._lock_handle = None

    def stats(self) -> dict:
        return {
            "backend": "durable",
            "path": str(self.path),
            "fsync": self._mode,
            "users": len(self._users),
            "seq": self._seq,
            "snapshot_seq": self._snapshot_seq,
            "journal_bytes": self._size,
            "replay_entries": len(self._replay),
            "fsyncs": self._fsyncs,
            "compactions": self._compactions,
            "last_fsync_ms": None
            if self._last_fsync_s is None
            else round(self._last_fsync_s * 1e3, 4),
            # Non-None once the instance has refused further writes
            # (failed rollback, failed group fsync, mid-protocol crash);
            # readiness checks and the WAL circuit breaker key off it.
            "failed": self._failed,
            # Users whose volatile-mode charges await a backfill.
            "unjournaled_users": len(self._outage or ()),
        }

    def __repr__(self) -> str:
        return (
            f"<DurableLedger path={str(self.path)!r} users="
            f"{len(self._users)} seq={self._seq} fsync={self._mode}>"
        )


def _replay(path: Path, book: MemoryLedgerBook, found: dict) -> None:
    """The one reader of a ledger's snapshot and journal.

    Loads the snapshot into the empty ``book`` (skipping the zero-release
    entries older compactions wrote for users whose first charge was
    rejected: no budget was spent), scans the journal, refuses
    mid-journal corruption and sequence gaps, and applies every record
    past the snapshot with the book's one apply rule. Changes nothing on
    disk. ``found`` receives ``seq``, ``snapshot_seq``, ``records``,
    ``journal_bytes`` (the valid prefix) and ``torn_tail_bytes`` as soon
    as the journal is scanned, so a refusal still reports what was read.
    """
    snapshot = _read_checked_json(path / _SNAPSHOT_NAME)
    seq = 0
    if snapshot is not None:
        seq = int(snapshot["seq"])
        for user, state in snapshot.get("users", {}).items():
            releases = int(state.get("releases", 1))
            if releases > 0:
                book._users[user] = _UserState(
                    _fraction(state["cum"]), releases, None
                )
        for idem, entry in snapshot.get("replay", {}).items():
            book._replay.put(idem, dict(entry))
    wal = path / _WAL_NAME
    try:
        data = wal.read_bytes()
    except FileNotFoundError:
        data = b""
    records, good, torn, failure = _scan_wal(data)
    found.update(
        seq=max(seq, records[-1]["seq"]) if records else seq,
        snapshot_seq=seq, records=len(records), journal_bytes=good,
        torn_tail_bytes=torn,
    )
    if failure is not None:
        raise LedgerCorruptionError(
            f"{wal}: {failure}; refusing to drop admitted charges — "
            "restore from snapshot/backup or repair manually"
        )
    applied = [r for r in records if r["seq"] > seq]
    if applied and applied[0]["seq"] != seq + 1:
        raise LedgerCorruptionError(
            f"{wal}: journal starts at seq {applied[0]['seq']} but the "
            f"snapshot ends at {seq}; records are missing"
        )
    for record in applied:
        book._apply(record)


@contextlib.contextmanager
def _shared_flock(path: Path):
    """Hold ``ledger.lock``'s flock shared when the file exists; never
    create it."""
    try:
        handle = open(path / _LOCK_NAME, "rb")
    except (FileNotFoundError, NotADirectoryError):
        yield
        return
    with handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_SH)
        yield


def replay_ledger_dir(
    directory, found: dict | None = None
) -> MemoryLedgerBook:
    """Read a ledger directory at rest into a memory book, read-only.

    The one replay a reopening :class:`DurableLedger` performs, run
    under ``ledger.lock``'s flock held shared, so a live server's
    compaction cannot interleave between the snapshot and journal
    reads. Nothing is created, truncated or written. Returns a
    :class:`MemoryLedgerBook` at ``meta.json``'s floor; ``found``, when
    given, receives ``floor`` (as stored) and the replay's counts (see
    :func:`_replay`). Raises :class:`ReproError` for a path without
    ``meta.json`` (no ledger) and :class:`LedgerCorruptionError` with
    the refusal.
    """
    path = Path(directory).expanduser()
    found = {} if found is None else found
    with _shared_flock(path):
        meta = _read_checked_json(path / _META_NAME)
        if meta is None:
            raise ReproError(f"no ledger at {path}")
        found["floor"] = meta.get("floor")
        book = MemoryLedgerBook(_fraction(meta["floor"]))
        _replay(path, book, found)
    return book


def verify_ledger_dir(directory) -> dict:
    """Read-only integrity check of a ledger directory.

    Reads ``meta.json``, then the one replay. ``ok`` is ``True`` exactly
    when :class:`DurableLedger` reopens the directory, and ``users`` then
    equals the reopened book's ``users()``; the refusal is reported as
    the failure, and a path without ``meta.json`` fails as holding no
    ledger. A torn tail is reported (``torn_tail_bytes``) but is *not* a
    failure — recovery truncates it by design.
    """
    path = Path(directory).expanduser()
    report = {
        "path": str(path),
        "ok": True,
        "records": 0,
        "users": 0,
        "seq": 0,
        "snapshot_seq": 0,
        "torn_tail_bytes": 0,
        "failures": [],
    }
    try:
        report["users"] = replay_ledger_dir(path, report).users()
    except ReproError as err:
        report["failures"].append(str(err))
    report["ok"] = not report["failures"]
    return report
