"""Every serving setting once: its default and its validation.

:class:`ServerConfig` is what :class:`~repro.serving.server.MechanismServer`
reads, what ``repro serve`` takes each flag's default from, and what the
fleet supervisor validates in its own process and ships whole, as JSON,
to every worker. The three constructor arguments that are objects, not
settings (the artifact ``store``, a pre-built ``ledger`` and the chaos
``faults``), stay outside it.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ..exceptions import ValidationError
from ..release.durable_ledger import FSYNC_MODES
from ..release.ledger import check_floor
from ..validation import SETTING_RANGES, check_setting

__all__ = ["DEGRADED_MODES", "ServerConfig", "WAL_POLICY_SPELLINGS"]

#: What traffic for a quarantined deployment gets: a 503, or the
#: certified same-(n, alpha) geometric fallback (see ``fallback.py``).
DEGRADED_MODES = ("503", "geometric")

#: The accepted spellings of the WAL failure policies, mapped to the
#: circuit breaker's short names; the long forms describe themselves on
#: the command line.
WAL_POLICY_SPELLINGS = {
    "reject-new-charges": "reject",
    "memory-mode-with-alarm": "memory",
    "reject": "reject",
    "memory": "memory",
}


@dataclass(frozen=True)
class ServerConfig:
    """The settings of one :class:`~repro.serving.server.MechanismServer`.

    Attributes
    ----------
    floor:
        Per-user privacy floor in ``[0, 1)``; ``0`` disables budget
        enforcement (accounting is still recorded). Strings such as
        ``"1/256"`` parse exactly.
    ledger_dir / ledger_fsync:
        A directory makes budgets a crash-safe
        :class:`~repro.release.durable_ledger.DurableLedger` (shared by N
        workers, surviving restarts); ``None`` keeps the in-memory book.
        ``ledger_fsync`` is its journal policy: ``"group"`` syncs once
        per micro-batch flush, before any of the batch's futures
        resolve.
    drain_deadline:
        Seconds a graceful stop waits for in-flight connections.
    batch_window / batch_max:
        Seconds a micro-batch stays open after its first query (``0``
        closes it at the end of the event-loop turn in which that query
        parked) and its size bound (``1`` turns batching off).
    audit_rate / audit_every:
        Fraction of responses fed to the online auditor (``0`` disables
        the hook), and a sweep every this many executed batches (``0``:
        only on explicit ``audit()`` calls).
    seed / audit_seed / trace_seed:
        Seeds of the sampling RNG, the auditor's slice and the tracer's
        coin.
    trace_rate / trace_dir / trace_ring:
        The fraction of publishes traced end to end, the directory whose
        ``trace.jsonl`` receives the spans (``None`` keeps the ring
        only; fleet workers all append to the one file), and the ring
        capacity behind ``GET /trace/recent``.
    queue_depth / shed_deadline:
        Admission control: the bound on in-flight publishes and the
        estimated queue wait (seconds) above which a publish is shed,
        both before any charge. ``0`` disables each.
    degraded:
        One of :data:`DEGRADED_MODES`.
    wal_failure_policy / breaker_cooldown:
        What a charge means while the WAL cannot persist (any spelling
        in :data:`WAL_POLICY_SPELLINGS`, stored as ``"reject"`` or
        ``"memory"``) and the breaker's half-open probe interval.
    worker_id:
        Fleet slot label echoed by ``/healthz`` and ``/readyz``.
    """

    floor: Fraction = Fraction(0)
    ledger_dir: str | None = None
    ledger_fsync: str = "group"
    drain_deadline: float = 5.0
    batch_window: float = 0.002
    batch_max: int = 4096
    audit_rate: float = 0.05
    audit_every: int = 64
    seed: int | None = None
    audit_seed: int | None = None
    trace_rate: float = 0.0
    trace_dir: str | None = None
    trace_ring: int = 1024
    trace_seed: int | None = None
    queue_depth: int = 0
    shed_deadline: float = 0.0
    degraded: str = "503"
    wal_failure_policy: str = "reject"
    breaker_cooldown: float = 1.0
    worker_id: str | None = None

    def __post_init__(self) -> None:
        def _set(name, value):
            object.__setattr__(self, name, value)

        for field in dataclasses.fields(self):
            kind = type(field.default)
            value = getattr(self, field.name)
            if kind in (int, float) and not isinstance(value, kind):
                try:
                    _set(field.name, kind(value))
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"{field.name} must be a number, got {value!r}"
                    ) from None
        for name in SETTING_RANGES:
            check_setting(name, getattr(self, name))
        floor = self.floor
        try:
            floor = Fraction(floor) if isinstance(floor, str) else floor
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"cannot parse floor {floor!r}") from None
        _set("floor", Fraction(check_floor(floor)))
        for name in ("ledger_dir", "trace_dir"):
            if getattr(self, name) is not None:
                _set(name, os.fspath(getattr(self, name)))
        if self.ledger_dir is not None:
            _check_ledger_dir(self.ledger_dir)
        if self.ledger_fsync not in FSYNC_MODES:
            raise ValidationError(
                f"ledger_fsync must be one of {FSYNC_MODES}, got "
                f"{self.ledger_fsync!r}"
            )
        policy = WAL_POLICY_SPELLINGS.get(self.wal_failure_policy)
        if policy is None:
            raise ValidationError(
                "wal_failure_policy must be one of "
                f"{sorted(WAL_POLICY_SPELLINGS)}, got "
                f"{self.wal_failure_policy!r}"
            )
        _set("wal_failure_policy", policy)
        if self.degraded not in DEGRADED_MODES:
            raise ValidationError(
                f"degraded mode must be one of {DEGRADED_MODES}, got "
                f"{self.degraded!r}"
            )

    @classmethod
    def of(cls, settings: dict) -> "ServerConfig":
        """Build from a mapping of field names, such as :meth:`to_dict`'s
        output after a JSON round trip. An unknown name raises
        :class:`~repro.exceptions.ValidationError` naming it."""
        unknown = sorted(set(settings) - _FIELDS)
        if unknown:
            raise ValidationError(
                f"unknown server setting(s) {', '.join(map(repr, unknown))}; "
                f"the settings are {', '.join(sorted(_FIELDS))}"
            )
        return cls(**settings)

    def to_dict(self) -> dict:
        """Every field, JSON-ready: the floor as its exact string."""
        data = dataclasses.asdict(self)
        data["floor"] = str(self.floor)
        return data


_FIELDS = frozenset(field.name for field in dataclasses.fields(ServerConfig))


def _check_ledger_dir(value: str) -> None:
    """Refuse a ledger path that is, or lies under, something not a
    directory.

    The ledger creates its directory on open; a regular file in the way
    would fail there, in every fleet worker, with a traceback.
    """
    path = Path(value).expanduser()
    for candidate in (path, *path.parents):
        if candidate.is_dir():
            return
        if os.path.lexists(candidate):
            raise ValidationError(
                f"ledger_dir {value} is not a directory" if candidate == path
                else f"ledger_dir {value} is under {candidate}, which is "
                "not a directory"
            )
