"""Differential state machine: memory book vs WAL book vs exact model.

Hypothesis drives a :class:`MemoryLedgerBook`, a
``DurableLedger(fsync="off")`` and an exact-``Fraction`` reference model
of the paper's composition (a user's budget is the product of the alphas
charged to them) through charges with idempotency keys, recorded
results, compactions, reopens, and charges and compactions through a
second instance on the same directory. After every step the three must
agree on every outcome, cumulative alpha, release count, ``users()``
and the all-users read, and ``verify_ledger_dir`` must report ``ok``
exactly when the directory reopens. Once a book's scrape aggregates
have been read (at a random step), they must equal the full burn walk
they replace after every later step.
"""

import shutil
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.exceptions import ReproError
from repro.obs.budget import burn_rows_from_book, floor_proximity
from repro.release.durable_ledger import (
    DurableLedger,
    MemoryLedgerBook,
    verify_ledger_dir,
)

FLOOR = Fraction(1, 16)
NAMES = ("a", "b", "c")
USERS = st.sampled_from(NAMES)
# 1/32 is below the floor on its own: a first charge at it is refused.
ALPHAS = st.sampled_from(
    [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(1, 32)]
)
KEY_NAMES = st.sampled_from(["k1", "k2", "k3"])
KEYS = st.one_of(st.none(), KEY_NAMES)


class Model:
    """Exact reference: per-user products and the idempotency keys."""

    def __init__(self) -> None:
        self.cum: dict[str, Fraction] = {}
        self.releases: dict[str, int] = {}
        self.keys: dict[str, tuple] = {}

    def charge(self, user, alpha, idem):
        if idem in self.keys:
            owner, status, response = self.keys[idem]
            cum = self.cum.get(owner or user, Fraction(1))
            if status is None:
                return "pending", cum, None
            return "replayed", cum, (status, response)
        before = self.cum.get(user, Fraction(1))
        if before * alpha < FLOOR:
            return "rejected", before, None
        self.cum[user] = before * alpha
        self.releases[user] = self.releases.get(user, 0) + 1
        if idem is not None:
            self.keys[idem] = (user, None, None)
        return "charged", self.cum[user], None

    def record_result(self, idem, status, response) -> None:
        owner = self.keys.get(idem, (None,))[0]
        self.keys[idem] = (owner, status, response)

    def budgets(self) -> list:
        return sorted(
            (user, self.releases[user], cum) for user, cum in self.cum.items()
        )


def assert_aggregates_match_the_walk(book) -> None:
    rows = burn_rows_from_book(book)
    assert book.burn_summary() == (
        floor_proximity(rows),
        [(r.user, r.spent_fraction) for r in rows[:10]],
    ), type(book).__name__


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="ledger-model-")
        self.model = Model()
        self.memory = MemoryLedgerBook(FLOOR)
        self.wal = self._open()
        # Books whose scrape aggregates were read, and so are kept up.
        self.aggregated: list = []

    def _open(self) -> DurableLedger:
        return DurableLedger(self.dir, FLOOR, fsync="off", snapshot_every=0)

    def teardown(self) -> None:
        self.wal.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _charge(self, wal, user, alpha, idem) -> None:
        expected = self.model.charge(user, alpha, idem)
        for book in (self.memory, wal):
            decision = book.charge(user, alpha, idem=idem)
            got = (decision.outcome, decision.cumulative_alpha, decision.replay)
            assert got == expected, (type(book).__name__, got, expected)

    @rule(user=USERS, alpha=ALPHAS, idem=KEYS)
    def charge(self, user, alpha, idem):
        self._charge(self.wal, user, alpha, idem)

    @rule(user=USERS, alpha=ALPHAS, idem=KEYS)
    def charge_through_a_second_instance(self, user, alpha, idem):
        sibling = self._open()
        try:
            self._charge(sibling, user, alpha, idem)
        finally:
            sibling.close()

    @rule(idem=KEY_NAMES, value=st.integers(0, 8))
    def record_result(self, idem, value):
        response = {"value": value}
        self.model.record_result(idem, 200, response)
        for book in (self.memory, self.wal):
            book.record_result(idem, 200, response)

    @rule()
    def compact(self):
        self.wal.compact()

    @rule()
    def compact_through_a_second_instance(self):
        sibling = self._open()
        try:
            sibling.compact()
        finally:
            sibling.close()

    @rule()
    def reopen(self):
        self.wal.close()
        self.wal = self._open()

    @rule(wal=st.booleans())
    def read_the_aggregates(self, wal):
        book = self.wal if wal else self.memory
        book.burn_summary()
        if book not in self.aggregated:
            self.aggregated.append(book)

    @invariant()
    def aggregates_match_the_walk(self):
        for book in (self.memory, self.wal):
            if book in self.aggregated:
                assert_aggregates_match_the_walk(book)

    @invariant()
    def verify_is_ok_exactly_when_the_directory_reopens(self):
        ok = verify_ledger_dir(self.dir)["ok"]
        try:
            self._open().close()
        except ReproError:
            reopens = False
        else:
            reopens = True
        assert ok == reopens

    @invariant()
    def books_agree_with_the_model(self):
        expected = self.model.budgets()
        for book in (self.memory, self.wal):
            read = sorted(
                (b.user, b.releases, b.cumulative_alpha)
                for b in book.budgets()
            )
            assert read == expected, type(book).__name__
            assert book.users() == len(expected)
            for user in NAMES:
                view = book.view(user)
                got = None if view is None else (
                    view.releases, view.cumulative_alpha
                )
                want = None if user not in self.model.cum else (
                    self.model.releases[user], self.model.cum[user]
                )
                assert got == want, (type(book).__name__, user)


LedgerMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestLedgerModel = LedgerMachine.TestCase


@settings(max_examples=40, deadline=None)
@given(
    floor=st.sampled_from([Fraction(0), FLOOR, Fraction(1, 2**1100)]),
    charges=st.lists(
        st.tuples(st.sampled_from([f"user{i:02d}" for i in range(15)]),
                  ALPHAS),
        max_size=60,
    ),
    read_at=st.integers(0, 60),
)
def test_aggregates_rank_the_top_ten_of_many_users(floor, charges, read_at):
    """More users than the ten top burners the aggregates keep: users
    enter the top and push others out as they are charged."""
    book = MemoryLedgerBook(floor)
    for i, (user, alpha) in enumerate(charges):
        if i == read_at:
            book.burn_summary()
        book.charge(user, alpha)
    assert_aggregates_match_the_walk(book)
