"""Privacy-budget burn-rate analysis over ledger books.

The ledger enforces the floor; this module makes the approach to it
*visible*. For every user it derives:

* ``spent_fraction`` — how much of the epsilon budget is gone, as
  ``log(cumulative_alpha) / log(floor)`` (the epsilon-fraction, since
  ``epsilon = -ln(alpha)``): 0.0 for an untouched book, 1.0 at the
  floor;
* ``remaining_charges`` — the largest ``k`` with
  ``cumulative * alpha**k >= floor`` at the user's last charged
  ``alpha``: how many more identical releases the ledger would admit
  before answering 429.

``remaining_charges`` is estimated in float logs and then corrected
with exact :class:`fractions.Fraction` comparisons, so it is *exact*
even thousands of charges from the floor where ``alpha**k`` underflows
log arithmetic's precision.

Sources: a live ledger book (:func:`burn_rows_from_book`, one
consistent read of every user's budget, used by the server's
scrape-time collector and ``GET /obs/burn``) or a ledger directory at
rest (:func:`burn_rows_from_dir`, used by ``repro ledger
show`` and ``repro obs top`` — recovery replays the WAL, so the rows
reflect exactly what a restarted server would enforce). The durable
ledger import is lazy to keep ``repro.obs`` free of release-layer
imports at module load (the release layer imports ``obs.metrics``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "BurnRow",
    "burn_rows_from_book",
    "burn_rows_from_dir",
    "floor_proximity",
]


@dataclass(frozen=True)
class BurnRow:
    """One user's budget burn-down, derived from their ledger book."""

    user: str
    releases: int
    cumulative_alpha: object
    floor: object
    #: Epsilon-fraction spent: 0.0 fresh, 1.0 at the floor. ``0.0`` when
    #: the floor is 0 (an unlimited book never burns down).
    spent_fraction: float
    #: Exact further charges at ``last_alpha`` before rejection;
    #: ``None`` when unbounded (floor 0) or no alpha is known yet.
    remaining_charges: int | None
    #: The alpha a future charge is assumed to use: the user's last
    #: charged alpha, or the geometric mean of their releases when only
    #: a compacted cumulative guarantee is known.
    last_alpha: object | None

    @property
    def at_floor(self) -> bool:
        return self.remaining_charges == 0

    def to_dict(self) -> dict:
        return {
            "user": self.user,
            "releases": self.releases,
            "cumulative_alpha": str(self.cumulative_alpha),
            "floor": str(self.floor),
            "spent_fraction": self.spent_fraction,
            "remaining_charges": self.remaining_charges,
            "last_alpha": None
            if self.last_alpha is None
            else str(self.last_alpha),
        }


def spent_fraction(cumulative, floor) -> float:
    """Epsilon-fraction of the budget consumed, clamped to [0, 1]."""
    if floor is None or floor == 0 or cumulative >= 1:
        return 0.0
    if floor >= 1:
        return 1.0
    fraction = math.log(float(cumulative)) / math.log(float(floor))
    return min(1.0, max(0.0, fraction))


def remaining_charges(cumulative, floor, alpha) -> int | None:
    """Largest ``k >= 0`` with ``cumulative * alpha**k >= floor``.

    ``None`` when unbounded (``floor == 0``) or ``alpha`` is not a
    budget-consuming level (``alpha <= 0`` or ``alpha >= 1``). The float
    log estimate is adjusted with exact Fraction arithmetic, so the
    answer matches what a ledger book's charge would admit.
    """
    if floor is None or floor == 0:
        return None
    if alpha is None or not 0 < alpha < 1:
        return None
    cumulative = Fraction(cumulative)
    floor = Fraction(floor)
    if cumulative < floor:
        return 0
    try:
        alpha = Fraction(alpha)
        exact = True
    except (TypeError, ValueError):
        exact = False
    # Log of the ratio via integer logs: float(ratio) underflows to 0.0
    # (and log raises) once the floor is ~1000 half-charges away.
    ratio = floor / cumulative
    log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
    log_alpha = (
        math.log(alpha.numerator) - math.log(alpha.denominator)
        if exact
        else math.log(float(alpha))
    )
    estimate = max(0, int(math.floor(log_ratio / log_alpha)))
    if not exact:
        return estimate
    # Walk the float estimate to the exact boundary: k is admitted iff
    # cumulative * alpha**k >= floor.
    while estimate > 0 and cumulative * alpha**estimate < floor:
        estimate -= 1
    while cumulative * alpha ** (estimate + 1) >= floor:
        estimate += 1
    return estimate


def _projected_alpha(budget):
    """The alpha to project future charges at.

    The user's last charged alpha; after a compaction only the total is
    known, so fall back to the geometric mean
    ``cumulative ** (1/releases)``.
    """
    alpha = budget.last_alpha
    if alpha is not None and 0 < alpha < 1:
        return alpha
    cumulative = budget.cumulative_alpha
    if budget.releases > 0 and 0 < cumulative < 1:
        return float(cumulative) ** (1.0 / budget.releases)
    return None


def burn_row(budget) -> BurnRow:
    """One user's burn row from their
    :class:`~repro.release.durable_ledger.UserBudget`."""
    alpha = _projected_alpha(budget)
    cumulative, floor = budget.cumulative_alpha, budget.floor
    return BurnRow(
        user=budget.user,
        releases=budget.releases,
        cumulative_alpha=cumulative,
        floor=floor,
        spent_fraction=spent_fraction(cumulative, floor),
        remaining_charges=remaining_charges(cumulative, floor, alpha),
        last_alpha=alpha,
    )


def burn_rows_from_book(book) -> list:
    """Burn rows for every user of a (memory or durable) ledger book.

    Sorted most-burned first, ties broken by user name, so the head of
    the list is always the next user to hit the floor.
    """
    rows = [burn_row(budget) for budget in book.budgets()]
    rows.sort(key=lambda r: (-r.spent_fraction, r.user))
    return rows


def burn_rows_from_dir(path) -> list:
    """Burn rows recovered from a ledger directory's snapshot + WAL."""
    from ..release.durable_ledger import DurableLedger

    ledger = DurableLedger(path, fsync="off")
    try:
        return burn_rows_from_book(ledger)
    finally:
        ledger.close()


def floor_proximity(rows, ks=(1, 2, 4, 8)) -> dict:
    """How many users are within ``k`` further charges of their floor.

    Returns ``{k: count}`` counting rows whose ``remaining_charges`` is
    known and ``<= k`` — the fuel gauge behind the
    ``repro_budget_users_near_floor`` metric.
    """
    counts = {}
    for k in ks:
        counts[int(k)] = sum(
            1
            for row in rows
            if row.remaining_charges is not None and row.remaining_charges <= k
        )
    return counts
