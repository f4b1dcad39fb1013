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

``remaining_charges`` is estimated in logs and then corrected with
exact integer cross-multiplication, so it is *exact* even thousands of
charges from the floor where ``alpha**k`` underflows log arithmetic's
precision. Every log falls back to integer logs once ``float`` of a
deep budget underflows to 0, so burn math never raises on a book the
ledger accepts.

Sources: a live ledger book (:func:`burn_rows_from_book`, one
consistent read of every user's budget, behind ``GET /obs/burn``) or a
ledger directory at rest (:func:`burn_rows_from_dir`, used by ``repro
obs top`` — the read-only replay a reopening server performs, so the
rows reflect exactly what a restarted server would enforce). These are
operator drill-downs that walk every user. The metrics scrape does not:
the book keeps the two aggregates it publishes (the floor-proximity
counts and the top burners) current on every charge through
:func:`burn_position`, the same rule a row is built from, and
``floor_proximity(burn_rows_from_book(book))`` remains their reference.
The durable ledger import is lazy to keep ``repro.obs`` free of
release-layer imports at module load (the release layer imports
``obs.metrics``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BurnRow",
    "burn_rows_from_book",
    "burn_rows_from_dir",
    "floor_proximity",
]

#: The ``within`` levels of ``repro_budget_users_near_floor``: users at
#: most this many further charges from their floor.
NEAR_FLOOR = (1, 2, 4, 8)

#: The charges-left bucket :func:`burn_position` puts every user in who
#: is more than ``max(NEAR_FLOOR)`` charges from the floor, or unbounded.
FAR = NEAR_FLOOR[-1] + 1


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


def _log(num: int, den: int) -> float:
    """Natural log of the positive rational ``num/den``.

    The float quotient of a budget below ~1e-308 underflows to 0.0 (and
    ``math.log`` raises); only then fall back to integer logs, so every
    value that is finite in floats stays bit-identical.
    """
    approx = num / den
    if approx > 0.0:
        return math.log(approx)
    return math.log(num) - math.log(den)


def spent_fraction(cumulative, floor) -> float:
    """Epsilon-fraction of the budget consumed, clamped to [0, 1]."""
    if floor is None:
        return 0.0
    return _spent(cumulative.as_integer_ratio(), floor.as_integer_ratio())


def _spent(cumulative, floor) -> float:
    """:func:`spent_fraction` of two ``(numerator, denominator)`` pairs."""
    num, den = cumulative
    floor_num, floor_den = floor
    if floor_num == 0 or num >= den:
        return 0.0
    if floor_num >= floor_den:
        return 1.0
    fraction = _log(num, den) / _log(floor_num, floor_den)
    return min(1.0, max(0.0, fraction))


def remaining_charges(cumulative, floor, alpha) -> int | None:
    """Largest ``k >= 0`` with ``cumulative * alpha**k >= floor``.

    ``None`` when unbounded (``floor == 0``) or ``alpha`` is not a
    budget-consuming level (``alpha <= 0`` or ``alpha >= 1``). The log
    estimate is adjusted with exact integer arithmetic, so the answer
    matches what a ledger book's charge would admit.
    """
    if floor is None:
        return None
    return _charges_left(
        cumulative.as_integer_ratio(), floor.as_integer_ratio(), alpha, None
    )


def _charges_left(cumulative, floor, alpha, cap) -> int | None:
    """:func:`remaining_charges` of two ``(numerator, denominator)``
    pairs, or ``min(remaining_charges, cap)``.

    The log estimate only picks where the exact walk starts; with a
    ``cap`` it starts at most ``cap`` charges out, so a user far from
    the floor costs one exact comparison of small powers.
    """
    num, den = cumulative
    floor_num, floor_den = floor
    if floor_num == 0 or alpha is None:
        return None
    p, q = alpha.as_integer_ratio()  # exact, for a float alpha too
    if not 0 < p < q:
        return None
    # cumulative * alpha**k >= floor  <=>  have * p**k >= need * q**k
    have, need = num * floor_den, floor_num * den
    if have < need:
        return 0
    # Integer logs: float(ratio) underflows to 0.0 (and log raises) once
    # the floor is ~1000 half-charges away.
    estimate = int(
        (math.log(have) - math.log(need)) / (math.log(q) - math.log(p))
    )
    k = max(0, estimate if cap is None else min(estimate, cap))
    p_k, q_k = p**k, q**k
    while k > 0 and have * p_k < need * q_k:
        k -= 1
        p_k //= p
        q_k //= q
    while (cap is None or k < cap) and have * p_k * p >= need * q_k * q:
        k += 1
        p_k *= p
        q_k *= q
    return k


def _projected_alpha(last_alpha, cumulative, releases):
    """The alpha to project future charges at (``cumulative`` as a
    ``(numerator, denominator)`` pair).

    The user's last charged alpha; after a compaction only the total is
    known, so fall back to the geometric mean
    ``cumulative ** (1/releases)`` (in logs once the float of a deep
    total underflows to 0).
    """
    if last_alpha is not None:
        p, q = last_alpha.as_integer_ratio()
        if 0 < p < q:
            return last_alpha
    num, den = cumulative
    if releases > 0 and 0 < num < den:
        approx = num / den
        if approx > 0.0:
            return approx ** (1.0 / releases)
        return math.exp(_log(num, den) / releases)
    return None


def burn_position(cumulative, floor, releases, last_alpha):
    """``(spent_fraction, charges left capped at FAR)``.

    What the book's scrape aggregates keep per user: the same values
    :func:`burn_row` derives, with every user more than
    ``max(NEAR_FLOOR)`` charges from the floor (or unbounded) in the
    :data:`FAR` bucket.
    """
    floor = floor.as_integer_ratio()
    if floor[0] == 0:
        # An unlimited book never burns down (the rule below agrees;
        # this skips it on the charge path of an unfloored server).
        return 0.0, FAR
    cumulative = cumulative.as_integer_ratio()
    left = _charges_left(
        cumulative, floor,
        _projected_alpha(last_alpha, cumulative, releases), FAR,
    )
    return _spent(cumulative, floor), FAR if left is None else left


def burn_row(budget) -> BurnRow:
    """One user's burn row from their
    :class:`~repro.release.durable_ledger.UserBudget`."""
    cumulative, floor = budget.cumulative_alpha, budget.floor
    alpha = _projected_alpha(
        budget.last_alpha, cumulative.as_integer_ratio(), budget.releases
    )
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
    """Burn rows of a ledger directory at rest, read without changing
    it (see :func:`repro.release.durable_ledger.replay_ledger_dir`)."""
    from ..release.durable_ledger import replay_ledger_dir

    return burn_rows_from_book(replay_ledger_dir(path))


def floor_proximity(rows, ks=NEAR_FLOOR) -> dict:
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
