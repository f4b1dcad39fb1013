"""Privacy-budget ledger for repeated releases.

Each independent release about the same database composes: answering the
same (or any) count query twice at levels ``alpha_1`` and ``alpha_2``
lets an adversary combine likelihood ratios, so the joint guarantee
degrades to the *product* ``alpha_1 * alpha_2`` (in the epsilon
convention: epsilons add). Section 2.6 motivates Algorithm 1 exactly to
avoid paying this cost for multi-level releases of one statistic.

:class:`PrivacyLedger` makes the composition explicit for everything
else: it records each release, tracks the cumulative guarantee exactly
(Fractions compose exactly), and refuses releases that would drop the
database below a configured privacy floor. (The serving tier's per-user
books in :mod:`repro.release.durable_ledger` keep only the running
product, the release count and the last alpha.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.privacy import alpha_to_epsilon
from ..exceptions import ReproError, ValidationError
from ..validation import check_alpha

__all__ = [
    "BudgetExceededError",
    "LedgerEntry",
    "PrivacyLedger",
]


class BudgetExceededError(ReproError):
    """A release would exhaust the ledger's privacy floor."""


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded release.

    Attributes
    ----------
    label:
        Caller-supplied description of the release.
    alpha:
        The release's privacy level.
    cumulative_alpha:
        The joint guarantee over all releases up to and including this
        one (product of levels).
    """

    label: str
    alpha: object
    cumulative_alpha: object


def check_floor(floor):
    """Validate a privacy floor: ``[0, 1)``, 0 disabling enforcement."""
    check_alpha(floor, allow_endpoints=True)
    if floor == 1:
        raise ValidationError(
            "floor = 1 (absolute privacy) would forbid every release"
        )
    return floor


def allowance(cumulative, floor):
    """The weakest further release the floor still allows.

    A future release at level ``a`` keeps a budget legal iff
    ``cumulative * a >= floor``, i.e. ``a >= floor / cumulative``.
    Returns 0 when enforcement is disabled, 1 when nothing is left.
    """
    if floor == 0:
        return 0
    return min(floor / cumulative, Fraction(1))


class PrivacyLedger:
    """Tracks cumulative privacy loss across independent releases.

    Parameters
    ----------
    floor:
        The weakest joint guarantee the data owner will tolerate; the
        ledger refuses releases that would push the cumulative level
        below it. ``floor = 0`` disables enforcement.

    Examples
    --------
    >>> ledger = PrivacyLedger(floor=Fraction(1, 16))
    >>> ledger.charge(Fraction(1, 2), label="flu count")
    >>> ledger.charge(Fraction(1, 4), label="age histogram cell")
    >>> ledger.cumulative_alpha
    Fraction(1, 8)
    >>> ledger.remaining_alpha
    Fraction(1, 2)
    """

    def __init__(self, floor=0) -> None:
        self.floor = check_floor(floor)
        self._entries: list[LedgerEntry] = []

    # ------------------------------------------------------------------
    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        """All recorded releases, in order."""
        return tuple(self._entries)

    @property
    def cumulative_alpha(self):
        """The joint guarantee so far (1 when nothing was released)."""
        if not self._entries:
            return Fraction(1)
        return self._entries[-1].cumulative_alpha

    @property
    def cumulative_epsilon(self) -> float:
        """The joint guarantee in the epsilon convention (sums)."""
        return alpha_to_epsilon(max(self.cumulative_alpha, 0))

    @property
    def remaining_alpha(self):
        """The weakest further release the floor still allows (see
        :func:`allowance`)."""
        return allowance(self.cumulative_alpha, self.floor)

    def can_afford(self, alpha) -> bool:
        """Whether a release at ``alpha`` fits in the remaining budget."""
        check_alpha(alpha)
        if self.floor == 0:
            return True
        return self.cumulative_alpha * alpha >= self.floor

    def charge(self, alpha, *, label: str = "release") -> None:
        """Record a release at level ``alpha``.

        Raises
        ------
        BudgetExceededError
            When the floor would be crossed; the ledger is unchanged.
        """
        check_alpha(alpha)
        proposed = self.cumulative_alpha * alpha
        if self.floor != 0 and proposed < self.floor:
            raise BudgetExceededError(
                f"release {label!r} at alpha={alpha} would take the joint "
                f"guarantee to {proposed}, below the floor {self.floor}"
            )
        self._entries.append(
            LedgerEntry(
                label=label, alpha=alpha, cumulative_alpha=proposed
            )
        )

    def report(self) -> str:
        """A plain-text statement of the ledger."""
        lines = [
            f"privacy ledger: {len(self._entries)} release(s), "
            f"floor={self.floor}"
        ]
        for index, entry in enumerate(self._entries):
            lines.append(
                f"  {index + 1}. {entry.label}: alpha={entry.alpha} "
                f"-> cumulative {entry.cumulative_alpha}"
            )
        lines.append(
            f"joint guarantee: alpha={self.cumulative_alpha} "
            f"(epsilon={self.cumulative_epsilon:.4f})"
        )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<PrivacyLedger entries={len(self._entries)} "
            f"cumulative={self.cumulative_alpha} floor={self.floor}>"
        )
