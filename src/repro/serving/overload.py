"""Overload protection for the serving tier.

A server that melts under load fails its users twice: admitted requests
time out *and* the privacy ledger records charges for responses nobody
received. This module keeps the failure modes principled:

* :class:`AdmissionController` — a bounded admission gate consulted
  **before any ledger charge**. A request is shed (HTTP 429/503 with a
  ``Retry-After`` estimate) when the in-flight bound is hit or when the
  queue's expected drain time — an EWMA of observed service time times
  the current depth — already exceeds the request's deadline. Because
  shedding happens strictly before the charge-or-reject, a shed request
  provably spends zero budget, so clients may retry it freely without
  an idempotency key.
* **Brownout** — under *sustained* overload (the shed fraction over the
  recent decision window crosses a threshold) the controller reports
  :meth:`AdmissionController.brownout`; the server responds by shedding
  its own optional work first — audit sampling and trace sampling are
  skipped — before it sheds any more user requests. Observability
  degrades before availability does, and the skips are counted
  (``repro_brownout_skips_total``), never silent.
* :class:`WALCircuitBreaker` — wraps the durable ledger's failure
  domain. When the write-ahead log stops persisting charges (ENOSPC,
  EIO, a dying disk — surfaced as
  :class:`~repro.release.durable_ledger.LedgerUnavailableError`), the
  breaker opens and the configured policy decides what a charge means
  while the disk is gone:

  - ``"reject"`` (``--wal-failure-policy reject-new-charges``) — new
    charges are refused with 503 + ``Retry-After``; nothing is released
    against a charge that cannot be made durable. Availability degrades,
    durability does not.
  - ``"memory"`` (``--wal-failure-policy memory-mode-with-alarm``) —
    the ledger book goes volatile
    (:meth:`~repro.release.durable_ledger.DurableLedger.go_volatile`):
    it keeps charging in memory, so the per-user floor keeps binding
    exactly where it stood, and every response is marked
    ``"durability": "volatile"`` while ``/healthz``, ``/metrics`` and a
    tracer event raise the alarm. Availability is preserved; the
    downgrade is loud by construction — there is deliberately no silent
    third policy.

  Either way the breaker half-opens after ``cooldown`` seconds and the
  book probes recovery itself
  (:meth:`~repro.release.durable_ledger.DurableLedger.recover`: reopen
  the WAL, reload, probe). A volatile book then **backfills** its queued
  outage charges into the journal (one ``backfill`` charge per user)
  together with the outage's idempotency entries, so the volatile
  window narrows to exactly the outage, no admitted charge is ever
  forgotten, and a retried request replays instead of re-charging.

Everything here is stdlib-only and synchronous: the controller runs on
the event-loop thread (one check, no locks) and the breaker's state
machine is a couple of floats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..exceptions import ValidationError
from ..validation import check_setting

__all__ = [
    "AdmissionController",
    "ShedDecision",
    "WALCircuitBreaker",
    "WAL_FAILURE_POLICIES",
]

#: WAL-failure policies (CLI spellings map onto the short names).
WAL_FAILURE_POLICIES = ("reject", "memory")

#: Smoothing factor of the service-time EWMA: small enough to ride out
#: one slow batch, large enough to track a real regime change within a
#: few dozen requests.
_EWMA_ALPHA = 0.05

#: Floor on the Retry-After estimate handed to shed clients, seconds —
#: a zero would invite an immediate, equally doomed retry.
_MIN_RETRY_AFTER = 0.01


@dataclass(frozen=True)
class ShedDecision:
    """Why a request was shed, before any ledger charge happened.

    ``status`` is the HTTP status to return (429 for a full queue — the
    client should back off; 503 for a deadline miss or an open breaker —
    the *server* cannot serve in time), ``retry_after`` the seconds a
    client should wait before retrying.
    """

    status: int
    reason: str
    retry_after: float


class AdmissionController:
    """Bounded, deadline-aware admission gate for the publish path.

    Parameters
    ----------
    capacity:
        Maximum admitted publishes in flight (parked in the micro-batch
        queue or executing). ``0`` disables the bound.
    shed_deadline:
        Server-wide deadline in seconds: a request whose estimated wait
        (queue depth x service-time EWMA) exceeds this is shed before it
        queues. ``0`` disables deadline shedding. A request may carry
        its own tighter deadline (``deadline_ms`` in the payload).
    brownout_threshold / brownout_window:
        Brownout trips when more than ``threshold`` of the last
        ``window`` admission decisions were sheds; it clears as soon as
        the windowed fraction drops back below.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        capacity: int = 0,
        shed_deadline: float = 0.0,
        *,
        brownout_threshold: float = 0.5,
        brownout_window: int = 128,
        clock=time.monotonic,
    ) -> None:
        self.capacity = int(check_setting("queue_depth", capacity))
        self.shed_deadline = float(
            check_setting("shed_deadline", shed_deadline)
        )
        if not 0.0 < brownout_threshold <= 1.0:
            raise ValidationError(
                "brownout threshold must be in (0, 1], got "
                f"{brownout_threshold}"
            )
        if brownout_window < 1:
            raise ValidationError(
                f"brownout window must be >= 1, got {brownout_window}"
            )
        self.brownout_threshold = float(brownout_threshold)
        self.brownout_window = int(brownout_window)
        self._clock = clock
        self.inflight = 0
        self.service_ewma = 0.0
        # Windowed shed tally as a ring of 0/1 outcomes — O(1) per
        # decision, no deque import on the hot path.
        self._window = [0] * self.brownout_window
        self._window_at = 0
        self._window_shed = 0
        self._window_filled = 0
        self.stats = {
            "admitted": 0,
            "shed_queue_full": 0,
            "shed_deadline": 0,
            "peak_inflight": 0,
            "brownouts": 0,
        }
        self._browned_out = False

    # -- the admission decision ----------------------------------------
    def estimated_wait(self) -> float:
        """Expected time a newly queued request waits, seconds."""
        return self.inflight * self.service_ewma

    def try_admit(self, deadline: float | None = None) -> ShedDecision | None:
        """Admit (returns ``None``) or shed (returns the decision).

        Must be balanced by exactly one :meth:`release` per admission —
        the server does so in a ``finally`` so even an injected crash
        returns the slot.
        """
        if self.capacity and self.inflight >= self.capacity:
            return self._shed(
                ShedDecision(
                    429,
                    "queue_full",
                    max(_MIN_RETRY_AFTER, self.estimated_wait()),
                )
            )
        limit = self.shed_deadline
        if deadline is not None and deadline >= 0:
            limit = deadline if limit <= 0 else min(limit, deadline)
        if limit > 0:
            wait = self.estimated_wait()
            if wait > limit:
                return self._shed(
                    ShedDecision(503, "deadline", max(_MIN_RETRY_AFTER, wait))
                )
        self.inflight += 1
        self.stats["admitted"] += 1
        if self.inflight > self.stats["peak_inflight"]:
            self.stats["peak_inflight"] = self.inflight
        self._record(0)
        return None

    def release(self, elapsed: float | None = None) -> None:
        """Return an admitted slot; ``elapsed`` feeds the service EWMA."""
        if self.inflight > 0:
            self.inflight -= 1
        if elapsed is not None and elapsed >= 0:
            if self.service_ewma == 0.0:
                self.service_ewma = elapsed
            else:
                self.service_ewma += _EWMA_ALPHA * (
                    elapsed - self.service_ewma
                )

    def _shed(self, decision: ShedDecision) -> ShedDecision:
        self.stats[f"shed_{decision.reason}"] += 1
        self._record(1)
        return decision

    # -- brownout -------------------------------------------------------
    def _record(self, shed: int) -> None:
        at = self._window_at
        self._window_shed += shed - self._window[at]
        self._window[at] = shed
        self._window_at = (at + 1) % self.brownout_window
        if self._window_filled < self.brownout_window:
            self._window_filled += 1
        active = (
            self._window_filled >= self.brownout_window
            and self._window_shed
            >= self.brownout_threshold * self.brownout_window
        )
        if active and not self._browned_out:
            self.stats["brownouts"] += 1
        self._browned_out = active

    @property
    def brownout(self) -> bool:
        """Sustained overload: shed optional work (audit/trace) first."""
        return self._browned_out

    def snapshot(self) -> dict:
        """A scrape-friendly view of the controller's state."""
        return {
            "capacity": self.capacity,
            "shed_deadline_s": self.shed_deadline,
            "inflight": self.inflight,
            "service_ewma_ms": round(self.service_ewma * 1e3, 4),
            "estimated_wait_ms": round(self.estimated_wait() * 1e3, 4),
            "brownout": self._browned_out,
            **self.stats,
        }


class WALCircuitBreaker:
    """Circuit breaker around the durable ledger's persistence failures.

    States: ``closed`` (durable charging), ``open`` (the policy is in
    effect), and an implicit half-open — :meth:`should_probe` grants one
    recovery attempt per ``cooldown`` window.

    The breaker never silently downgrades durability: opening it is
    loud (healthz, metrics, a tracer event from the server) and the
    ``memory`` policy marks every response it releases.
    """

    def __init__(
        self,
        *,
        policy: str = "reject",
        cooldown: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if policy not in WAL_FAILURE_POLICIES:
            raise ValidationError(
                f"WAL failure policy must be one of {WAL_FAILURE_POLICIES},"
                f" got {policy!r}"
            )
        self.policy = policy
        self.cooldown = float(check_setting("breaker_cooldown", cooldown))
        self._clock = clock
        self.open = False
        self.reason: str | None = None
        self.trips = 0
        self.recoveries = 0
        self._opened_at = 0.0
        self._last_probe = 0.0

    def trip(self, reason: str) -> None:
        """Record a persistence failure; open (or re-open) the breaker."""
        now = self._clock()
        if not self.open:
            self.trips += 1
            self._opened_at = now
        self.open = True
        self.reason = str(reason)
        self._last_probe = now

    def should_probe(self) -> bool:
        """Half-open: grant one recovery attempt per cooldown window."""
        if not self.open:
            return False
        now = self._clock()
        if now - self._last_probe >= self.cooldown:
            self._last_probe = now
            return True
        return False

    def reset(self) -> None:
        """A probe succeeded; durable charging resumes."""
        if self.open:
            self.recoveries += 1
        self.open = False
        self.reason = None

    def retry_after(self) -> float:
        """Seconds until the next recovery probe could run."""
        if not self.open:
            return 0.0
        return max(
            _MIN_RETRY_AFTER,
            self.cooldown - (self._clock() - self._last_probe),
        )

    def snapshot(self) -> dict:
        return {
            "state": "open" if self.open else "closed",
            "policy": self.policy,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "reason": self.reason,
            "open_seconds": (
                round(self._clock() - self._opened_at, 3) if self.open else 0.0
            ),
        }
