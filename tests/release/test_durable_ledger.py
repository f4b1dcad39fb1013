"""Tests for the crash-safe durable privacy ledger.

The invariants under test (see the module docstring of
:mod:`repro.release.durable_ledger`):

* **release-implies-durable** — a charge is journaled (and, in
  ``fsync="always"`` mode, fsync'd) before the caller sees "charged";
* **conservative recovery** — a valid checksummed record is always
  kept (ambiguity over-protects), a torn tail is truncated
  (never-acknowledged = never-released = floor-legal to drop), and
  corruption *before* valid records is refused loudly;
* **exactness** — budgets round-trip as exact ``Fraction`` values, not
  floats;
* **idempotency** — a replayed key never double-charges, even across a
  crash that lost the response.
"""

import json
import multiprocessing
import os
from fractions import Fraction

import pytest

from repro.exceptions import ReproError, ValidationError
from repro.obs.budget import burn_rows_from_book
from repro.release.durable_ledger import (
    FSYNC_MODES,
    DurableLedger,
    LedgerCorruptionError,
    LedgerUnavailableError,
    MemoryLedgerBook,
    _encode_record,
    replay_ledger_dir,
    verify_ledger_dir,
)
from repro.serving.faults import FaultInjector, FaultyFS, InjectedCrash

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@pytest.fixture()
def ledger_dir(tmp_path):
    return tmp_path / "ledger"


def reopen(ledger_dir, **kwargs):
    return DurableLedger(ledger_dir, **kwargs)


class TestDurableRoundtrip:
    def test_exact_fractions_survive_reopen(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 1000))
        ledger.charge("alice", Fraction(123, 456), label="odd")
        ledger.charge("alice", Fraction(7, 9))
        ledger.close()
        back = reopen(ledger_dir)
        budget = back.view("alice")
        assert budget.cumulative_alpha == Fraction(123, 456) * Fraction(7, 9)
        assert budget.releases == 2
        assert back.floor == Fraction(1, 1000)
        back.close()

    def test_floor_enforced_across_restarts(self, ledger_dir):
        statuses = []
        for _ in range(4):
            ledger = reopen(ledger_dir, floor=Fraction(1, 8))
            statuses.append(ledger.charge("u", HALF).outcome)
            ledger.close()
        # 1/2 -> 1/4 -> 1/8 (== floor, legal) -> rejected
        assert statuses == ["charged", "charged", "charged", "rejected"]

    def test_rejected_charge_writes_nothing(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 4))
        ledger.charge("u", HALF)
        size = os.path.getsize(ledger_dir / "wal.jsonl")
        decision = ledger.charge("u", QUARTER)
        assert decision.outcome == "rejected"
        assert os.path.getsize(ledger_dir / "wal.jsonl") == size
        ledger.close()

    def test_none_floor_adopts_persisted_floor(self, ledger_dir):
        DurableLedger(ledger_dir, Fraction(1, 8)).close()
        back = reopen(ledger_dir)
        assert back.floor == Fraction(1, 8)
        back.close()

    def test_explicit_floor_overrides_persisted(self, ledger_dir):
        DurableLedger(ledger_dir, Fraction(1, 8)).close()
        back = reopen(ledger_dir, floor=Fraction(1, 32))
        assert back.floor == Fraction(1, 32)
        back.close()
        assert reopen(ledger_dir).floor == Fraction(1, 32)

    def test_bad_fsync_mode_rejected(self, ledger_dir):
        with pytest.raises(ReproError, match="fsync"):
            DurableLedger(ledger_dir, fsync="sometimes")
        assert set(FSYNC_MODES) == {"always", "group", "off"}

    def test_floor_of_one_refused_before_anything_is_persisted(
        self, ledger_dir
    ):
        with pytest.raises(ValidationError, match="absolute privacy"):
            MemoryLedgerBook(1)
        with pytest.raises(ValidationError, match="absolute privacy"):
            DurableLedger(ledger_dir, 1)
        assert not ledger_dir.exists()


class TestCompactState:
    """Per-user state is ``(cum, releases, last_alpha)`` and only an
    admitted charge creates it."""

    def test_rejected_first_charge_creates_no_state(self):
        book = MemoryLedgerBook(QUARTER)
        decision = book.charge("x", Fraction(1, 8))
        assert decision.outcome == "rejected"
        assert decision.cumulative_alpha == 1
        assert decision.remaining_alpha == QUARTER
        assert book.view("x") is None
        assert book.users() == 0
        assert book.budgets() == []

    def test_rejection_then_compaction_reopens(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, QUARTER, snapshot_every=2)
        assert ledger.charge("x", Fraction(1, 8)).outcome == "rejected"
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)  # second append: auto-compaction
        assert ledger.stats()["compactions"] == 1
        live = (ledger.users(), ledger.budgets(), ledger.view("x"))
        ledger.close()
        assert verify_ledger_dir(ledger_dir)["ok"]
        back = reopen(ledger_dir)
        assert (back.users(), back.budgets(), back.view("x")) == live
        back.close()

    def test_zero_release_snapshot_entries_are_skipped(self, ledger_dir):
        # A snapshot as written by a compaction after a rejected first
        # charge: an empty entry for "x" next to a real one for "u".
        DurableLedger(ledger_dir, QUARTER).close()
        (ledger_dir / "snapshot.json").write_bytes(_encode_record({
            "version": 1, "seq": 3, "floor": "1/4", "replay": {},
            "users": {"x": {"cum": "1", "releases": 0},
                      "u": {"cum": "1/4", "releases": 2}},
        }))
        back = reopen(ledger_dir)
        assert back.view("x") is None
        assert back.users() == 1
        budget = back.view("u")
        assert (budget.cumulative_alpha, budget.releases) == (QUARTER, 2)
        assert back.charge("x", HALF).outcome == "charged"
        back.close()

    def test_budgets_read_carries_last_alpha(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 64))
        ledger.charge("a", QUARTER)
        ledger.charge("a", HALF)
        ledger.charge("b", Fraction(3, 4))
        budgets = {b.user: b for b in ledger.budgets()}
        assert budgets["a"].last_alpha == HALF
        assert budgets["a"].cumulative_alpha == Fraction(1, 8)
        assert budgets["a"].remaining_alpha == Fraction(1, 8)
        assert budgets["b"].last_alpha == Fraction(3, 4)
        ledger.compact()
        ledger.close()
        # After compaction only the total survives.
        back = reopen(ledger_dir)
        assert back.view("a").last_alpha is None
        assert back.view("a").releases == 2
        back.close()


class TestVolatileMode:
    """The WAL breaker's memory policy as a state of the book."""

    def test_floor_and_replays_bind_while_volatile(self, ledger_dir):
        book = DurableLedger(ledger_dir, HALF ** 3)
        book.charge("alice", HALF, idem="a-1")
        book.charge("alice", HALF)
        book.charge("bob", HALF)
        book.record_result("a-1", 200, {"value": 5})
        book.go_volatile()
        size = os.path.getsize(ledger_dir / "wal.jsonl")
        assert book.view("alice").cumulative_alpha == HALF ** 2
        assert book.view("bob").cumulative_alpha == HALF
        # The floor keeps binding exactly where it stood.
        assert book.charge("alice", HALF).outcome == "charged"
        assert book.charge("alice", HALF).outcome == "rejected"
        decision = book.charge("alice", HALF, idem="a-1")
        assert decision.outcome == "replayed"
        assert decision.replay == (200, {"value": 5})
        book.sync()  # nothing durable to commit
        with pytest.raises(LedgerUnavailableError, match="volatile"):
            book.compact()
        # Nothing reached the journal while volatile.
        assert os.path.getsize(ledger_dir / "wal.jsonl") == size
        book.close()

    def test_burn_rows_keep_the_last_charged_alpha(self, ledger_dir):
        book = DurableLedger(ledger_dir, HALF ** 8)
        for _ in range(3):
            book.charge("v", HALF)
        book.go_volatile()
        (row,) = burn_rows_from_book(book)
        assert row.cumulative_alpha == Fraction(1, 8)
        assert row.last_alpha == HALF
        assert row.remaining_charges == 5
        book.close()

    def test_recover_backfills_the_outage(self, ledger_dir):
        book = DurableLedger(ledger_dir, HALF ** 8, fsync="group")
        book.charge("u", HALF)
        book.go_volatile()
        book.charge("u", HALF)
        book.charge("u", HALF)
        book.charge("w", QUARTER)
        book.recover()
        assert book.view("u").cumulative_alpha == HALF ** 3
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == HALF ** 3
        assert back.view("w").cumulative_alpha == QUARTER
        # One backfill record per queued user.
        assert back.view("u").releases == 2
        assert back.budgets() == book.budgets()
        assert verify_ledger_dir(ledger_dir)["ok"]
        back.close()
        # Durable again: the next charge is journaled.
        book.charge("u", HALF)
        book.close()
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == HALF ** 4
        back.close()

    def test_sibling_charges_during_the_outage_are_kept(self, ledger_dir):
        a = DurableLedger(ledger_dir, HALF ** 8)
        a.charge("u", HALF)
        a.go_volatile()
        a.charge("u", HALF)
        b = DurableLedger(ledger_dir)
        assert b.charge("u", HALF).cumulative_alpha == QUARTER
        b.close()
        a.recover()
        a.close()
        back = reopen(ledger_dir)
        budget = back.view("u")
        assert (budget.cumulative_alpha, budget.releases) == (HALF ** 3, 3)
        back.close()

    def test_outage_keys_replay_or_resolve_pending(self, ledger_dir):
        book = DurableLedger(ledger_dir, HALF ** 8)
        book.go_volatile()
        book.charge("u", HALF, idem="served")
        book.record_result("served", 200, {"value": 3})
        book.charge("u", HALF, idem="lost")  # response never recorded
        book.recover()
        book.close()
        back = reopen(ledger_dir)
        replay = back.charge("u", HALF, idem="served")
        assert replay.outcome == "replayed"
        assert replay.replay == (200, {"value": 3})
        assert back.charge("u", HALF, idem="lost").outcome == "pending"
        assert back.view("u").cumulative_alpha == QUARTER
        back.close()

    def test_failed_recovery_stays_volatile(self, ledger_dir):
        DurableLedger(ledger_dir, HALF ** 8).close()
        faults = FaultInjector().fail_at("fs.fsync", times=2)
        book = DurableLedger(
            ledger_dir, HALF ** 8, fs=FaultyFS(faults), faults=faults
        )
        book.go_volatile()
        book.charge("u", HALF, idem="k")
        with pytest.raises(LedgerUnavailableError):
            book.recover()
        # Still volatile, the queue intact and the floor binding.
        assert book.view("u").cumulative_alpha == HALF
        assert book.charge("u", HALF, idem="k").outcome == "pending"
        book.recover()  # the storm is over
        book.close()
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == HALF
        assert back.charge("u", HALF, idem="k").outcome == "pending"
        back.close()


class TestIdempotency:
    def test_replay_returns_original_response(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 4))
        first = ledger.charge("u", HALF, idem="req-1")
        assert first.outcome == "charged"
        ledger.record_result("req-1", 200, {"value": 9})
        again = ledger.charge("u", HALF, idem="req-1")
        assert again.outcome == "replayed"
        assert again.replay == (200, {"value": 9})
        # the budget was spent exactly once
        assert ledger.view("u").cumulative_alpha == HALF
        ledger.close()

    def test_replay_survives_reopen(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 4))
        ledger.charge("u", HALF, idem="req-1")
        ledger.record_result("req-1", 200, {"value": 9})
        ledger.close()
        back = reopen(ledger_dir)
        again = back.charge("u", HALF, idem="req-1")
        assert again.outcome == "replayed"
        assert again.replay == (200, {"value": 9})
        back.close()

    def test_charged_but_response_lost_is_pending_not_recharged(
        self, ledger_dir
    ):
        ledger = DurableLedger(ledger_dir, Fraction(1, 4))
        ledger.charge("u", HALF, idem="req-1")
        ledger.close()  # "crash" before record_result
        back = reopen(ledger_dir)
        decision = back.charge("u", HALF, idem="req-1")
        assert decision.outcome == "pending"
        assert back.view("u").cumulative_alpha == HALF  # spent once
        back.close()

    def test_memory_book_same_semantics(self):
        book = MemoryLedgerBook(Fraction(1, 4))
        assert book.charge("u", HALF, idem="k").outcome == "charged"
        assert book.charge("u", HALF, idem="k").outcome == "pending"
        book.record_result("k", 200, {"v": 1})
        replay = book.charge("u", HALF, idem="k")
        assert replay.outcome == "replayed"
        assert replay.replay == (200, {"v": 1})
        assert book.view("u").cumulative_alpha == HALF


class TestRecovery:
    def test_torn_tail_is_truncated(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        intact = wal.read_bytes()
        wal.write_bytes(intact + b'{"op":"charge","seq":3,"user":"u"')
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == QUARTER
        assert wal.read_bytes() == intact  # tail physically removed
        back.close()

    def test_checksum_corrupt_tail_is_truncated(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        flipped = lines[-1].replace(b'"user":"u"', b'"user":"x"')
        assert flipped != lines[-1]
        wal.write_bytes(b"".join(lines[:-1]) + flipped)
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == HALF
        back.close()

    def test_mid_journal_corruption_is_refused(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(b"garbage not json\n" + b"".join(lines))
        with pytest.raises(LedgerCorruptionError, match="refusing to drop"):
            reopen(ledger_dir)
        report = verify_ledger_dir(ledger_dir)
        assert not report["ok"]

    def test_seq_gap_is_refused(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(lines[-1])  # first record vanished
        with pytest.raises(LedgerCorruptionError):
            reopen(ledger_dir)

    def test_snapshot_plus_journal_replay(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 100))
        ledger.charge("u", HALF, label="before-snapshot")
        ledger.compact()
        ledger.charge("u", QUARTER, label="after-snapshot")
        ledger.close()
        back = reopen(ledger_dir)
        budget = back.view("u")
        assert budget.cumulative_alpha == Fraction(1, 8)
        assert budget.releases == 2
        back.close()

    def test_crash_between_snapshot_and_truncate_is_safe(self, ledger_dir):
        faults = FaultInjector().crash_at("compact.after-snapshot")
        ledger = DurableLedger(ledger_dir, faults=faults)
        ledger.charge("u", HALF)
        with pytest.raises(InjectedCrash):
            ledger.compact()
        # the snapshot landed, the journal did not get truncated:
        assert (ledger_dir / "snapshot.json").exists()
        assert os.path.getsize(ledger_dir / "wal.jsonl") > 0
        back = reopen(ledger_dir)
        # replay must not double-apply the journaled charge
        assert back.view("u").cumulative_alpha == HALF
        assert back.view("u").releases == 1
        back.close()

    def test_auto_compaction_bounds_the_journal(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, snapshot_every=4)
        for _ in range(10):
            ledger.charge("u", Fraction(999, 1000))
        assert ledger.stats()["snapshot_seq"] >= 4
        ledger.close()
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == Fraction(999, 1000) ** 10
        assert back.view("u").releases == 10
        back.close()

    def test_compaction_waits_for_the_journal_to_outgrow_the_snapshot(
        self, ledger_dir
    ):
        ledger = DurableLedger(ledger_dir, fsync="off", snapshot_every=0)
        for i in range(2000):
            ledger.charge(f"u{i}", HALF)
        ledger.compact()
        ledger.close()
        snapshot = os.path.getsize(ledger_dir / "snapshot.json")
        ledger = DurableLedger(ledger_dir, fsync="off", snapshot_every=1)
        for _ in range(10):
            ledger.charge("hot", HALF)
        # A fixed cadence would have rewritten all 2001 users ten times.
        assert ledger.stats()["compactions"] == 0
        charges = 10
        while ledger.stats()["compactions"] == 0:
            journal = ledger.stats()["journal_bytes"]
            ledger.charge("hot", HALF)
            charges += 1
        assert journal < snapshot
        assert ledger.stats()["journal_bytes"] == 0
        assert ledger.stats()["snapshot_seq"] == 2000 + charges
        ledger.close()
        back = reopen(ledger_dir)
        assert back.view("hot").releases == charges
        assert back.users() == 2001
        back.close()

    def test_verify_ledger_dir_reports_clean_state(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 64))
        ledger.charge("a", HALF)
        ledger.charge("b", QUARTER)
        ledger.close()
        report = verify_ledger_dir(ledger_dir)
        assert report["ok"]
        assert report["records"] == 2
        assert report["users"] == 2
        assert report["floor"] == "1/64"

    def test_verify_catches_tampered_cumulative(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        record = json.loads(wal.read_bytes())
        record["cum"] = "1/3"  # inconsistent with alpha product
        del record["crc"]
        wal.write_bytes(_encode_record(record))
        report = verify_ledger_dir(ledger_dir)
        assert not report["ok"]
        assert any("running product" in f for f in report["failures"])


def _rewrite_json(path, **changes):
    record = json.loads(path.read_bytes())
    del record["crc"]
    record.update(changes)
    path.write_bytes(_encode_record(record))


def _meta_at_version_2(directory):
    _rewrite_json(directory / "meta.json", version=2)


def _snapshot_at_version_2(directory):
    (directory / "snapshot.json").write_bytes(_encode_record({
        "version": 2, "seq": 3, "floor": "1/64", "replay": {}, "users": {},
    }))


def _contradicting_cum(directory):
    wal = directory / "wal.jsonl"
    lines = wal.read_bytes().splitlines(keepends=True)
    wal.write_bytes(lines[0])
    _rewrite_json(wal, cum="1/3")  # alpha 1/2, re-checksummed


def _legacy_zero_release_entry(directory):
    # What compactions before the one-book refactor wrote for a user
    # whose first charge was rejected.
    (directory / "snapshot.json").write_bytes(_encode_record({
        "version": 1, "seq": 3, "floor": "1/64", "replay": {},
        "users": {"x": {"cum": "1", "releases": 0},
                  "u": {"cum": "1/4", "releases": 2},
                  "v": {"cum": "1/4", "releases": 1}},
    }))


def _mid_journal_garbage(directory):
    wal = directory / "wal.jsonl"
    wal.write_bytes(b"garbage not json\n" + wal.read_bytes())


def _sequence_gap(directory):
    wal = directory / "wal.jsonl"
    wal.write_bytes(b"".join(wal.read_bytes().splitlines(True)[1:]))


def _torn_tail(directory):
    wal = directory / "wal.jsonl"
    wal.write_bytes(wal.read_bytes() + b'{"op":"charge","seq":4,"user":"u"')


class TestOneReader:
    """``verify_ledger_dir``, the book's open and the at-rest reads are
    one replay, so they agree on every directory."""

    DAMAGE = [
        (_meta_at_version_2, False),
        (_snapshot_at_version_2, False),
        (_contradicting_cum, False),
        (_legacy_zero_release_entry, True),
        (_mid_journal_garbage, False),
        (_sequence_gap, False),
        (_torn_tail, True),
    ]

    @pytest.mark.parametrize(
        "damage,reopens", DAMAGE, ids=[d.__name__[1:] for d, _ in DAMAGE]
    )
    def test_verify_is_ok_exactly_when_the_book_reopens(
        self, ledger_dir, damage, reopens
    ):
        ledger = DurableLedger(ledger_dir, Fraction(1, 64))
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.charge("v", QUARTER)
        ledger.close()
        damage(ledger_dir)
        report = verify_ledger_dir(ledger_dir)  # first: opening truncates
        try:
            book = DurableLedger(ledger_dir)
        except LedgerCorruptionError:
            users = None
        else:
            users = book.users()
            book.close()
        assert report["ok"] == (users is not None) == reopens
        if reopens:
            assert report["users"] == users == 2

    def test_sibling_contradiction_refuses_every_later_call(
        self, ledger_dir
    ):
        book = DurableLedger(ledger_dir, Fraction(1, 64))
        assert book.charge("u", HALF).cumulative_alpha == HALF
        sibling = DurableLedger(ledger_dir)
        sibling.charge("v", HALF)  # a good record ...
        sibling.close()
        wal = ledger_dir / "wal.jsonl"
        intact = wal.read_bytes()
        with open(wal, "ab") as handle:  # ... then a contradicting one
            handle.write(_encode_record({
                "op": "charge", "seq": 3, "user": "u", "alpha": "1/2",
                "cum": "1/3", "label": "release",
            }))
        for _ in range(2):
            with pytest.raises(LedgerCorruptionError, match="running"):
                book.view("u")
            with pytest.raises(LedgerCorruptionError, match="running"):
                book.charge("u", HALF)
            with pytest.raises(LedgerCorruptionError, match="running"):
                book.budgets()
        wal.write_bytes(intact)  # repaired: the same book serves again,
        # and u's budget never took the contradicting record.
        assert book.view("u").cumulative_alpha == HALF
        assert book.view("v").cumulative_alpha == HALF
        book.close()

    def test_at_rest_reads_change_nothing(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 64))
        ledger.charge("u", HALF, idem="k")
        ledger.close()
        (ledger_dir / "ledger.lock").unlink()
        _torn_tail(ledger_dir)
        before = {p.name: p.read_bytes() for p in ledger_dir.iterdir()}
        found = {}
        book = replay_ledger_dir(ledger_dir, found)
        assert verify_ledger_dir(ledger_dir)["ok"]
        assert {p.name: p.read_bytes() for p in ledger_dir.iterdir()} == before
        assert (found["seq"], found["torn_tail_bytes"] > 0) == (1, True)
        assert book.floor == Fraction(1, 64)
        assert book.view("u").cumulative_alpha == HALF
        assert book.stats()["replay_entries"] == 1

    def test_a_path_without_meta_holds_no_ledger(self, tmp_path):
        missing = tmp_path / "missing"
        with pytest.raises(ReproError, match="no ledger at"):
            replay_ledger_dir(missing)
        report = verify_ledger_dir(missing)
        assert not report["ok"]
        assert report["failures"] == [f"no ledger at {missing}"]
        assert not missing.exists()


class TestMultiInstanceSharing:
    def test_two_instances_share_one_budget(self, ledger_dir):
        a = DurableLedger(ledger_dir, Fraction(1, 8))
        b = DurableLedger(ledger_dir, Fraction(1, 8))
        assert a.charge("u", HALF).outcome == "charged"
        assert b.charge("u", HALF).outcome == "charged"
        assert a.charge("u", HALF).outcome == "charged"  # hits 1/8 == floor
        assert b.charge("u", HALF).outcome == "rejected"
        assert a.view("u").cumulative_alpha == Fraction(1, 8)
        assert b.view("u").cumulative_alpha == Fraction(1, 8)
        a.close()
        b.close()

    def test_sibling_sees_compaction(self, ledger_dir):
        a = DurableLedger(ledger_dir)
        b = DurableLedger(ledger_dir)
        a.charge("u", HALF)
        a.compact()
        a.charge("u", HALF)
        assert b.view("u").cumulative_alpha == QUARTER
        a.close()
        b.close()

    def test_concurrent_processes_never_overspend(self, ledger_dir):
        DurableLedger(ledger_dir, Fraction(1, 2) ** 10).close()
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            outcomes = pool.map(
                _charge_worker, [str(ledger_dir)] * 4
            )
        charged = sum(outcomes)
        assert charged == 10  # exactly the floor's capacity, no more
        report = verify_ledger_dir(ledger_dir)
        assert report["ok"]
        back = reopen(ledger_dir)
        assert back.view("racer").cumulative_alpha == Fraction(1, 2) ** 10
        back.close()


def _charge_worker(directory: str) -> int:
    ledger = DurableLedger(directory)
    charged = 0
    for _ in range(5):
        if ledger.charge("racer", HALF).outcome == "charged":
            charged += 1
    ledger.close()
    return charged


class TestFaultInjection:
    def test_enospc_surfaces_as_unavailable_and_heals(self, ledger_dir):
        DurableLedger(ledger_dir).close()  # settle meta.json cleanly
        faults = FaultInjector().fail_at("fs.write", after=1)
        ledger = DurableLedger(
            ledger_dir, fs=FaultyFS(faults), faults=faults
        )
        ledger.charge("u", HALF)
        with pytest.raises(LedgerUnavailableError, match="persist"):
            ledger.charge("u", HALF)
        # the failed charge spent nothing and the ledger stays usable:
        assert ledger.view("u").cumulative_alpha == HALF
        assert ledger.charge("u", HALF).outcome == "charged"
        ledger.close()
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == QUARTER
        back.close()

    def test_short_write_rolls_back_cleanly(self, ledger_dir):
        DurableLedger(ledger_dir).close()
        faults = FaultInjector().short_at("fs.write", after=1, keep=7)
        ledger = DurableLedger(
            ledger_dir, fs=FaultyFS(faults), faults=faults
        )
        ledger.charge("u", HALF)
        with pytest.raises(LedgerUnavailableError):
            ledger.charge("u", HALF)
        assert ledger.charge("u", HALF).outcome == "charged"
        ledger.close()
        report = verify_ledger_dir(ledger_dir)
        assert report["ok"]
        assert report["records"] == 2

    def test_fsync_failure_marks_group_ledger_unavailable(self, ledger_dir):
        DurableLedger(ledger_dir).close()
        faults = FaultInjector().fail_at(
            "fs.fsync", exc=lambda: OSError(5, "injected EIO")
        )
        ledger = DurableLedger(
            ledger_dir, fsync="group", fs=FaultyFS(faults), faults=faults
        )
        ledger.charge("u", HALF)
        with pytest.raises(LedgerUnavailableError, match="group-commit"):
            ledger.sync()
        with pytest.raises(LedgerUnavailableError):
            ledger.charge("u", HALF)
        ledger.close()


@pytest.mark.chaos
class TestKillPointMatrix:
    """The parametrized kill matrix: crash a charge at every stage and
    assert the recovered state is floor-legal and never more permissive
    than reality (satellite 3).

    ``acked`` = how many of the 3 attempted charges were acknowledged
    (the caller saw "charged", so a response may have been released).
    The recovered cumulative must satisfy::

        floor <= recovered <= alpha ** acked      (never more permissive
                                                   than what was released)
        recovered >= alpha ** attempts            (never over-spent)
    """

    CASES = [
        # (kill point arming, acked charges after the crash)
        ("charge.before-append", 2),   # died before touching the disk
        ("fs.write-tear", 2),          # died mid-append: torn record
        ("charge.before-fsync", 2),    # bytes written, ack never sent
        ("charge.after-fsync", 3),     # durable; only the response died
    ]

    @pytest.mark.parametrize("point,acked_max", CASES)
    def test_kill_and_recover(self, tmp_path, point, acked_max):
        directory = tmp_path / "ledger"
        floor = Fraction(1, 2) ** 5
        faults = FaultInjector()
        if point == "fs.write-tear":
            faults.tear_at("fs.write", after=3, keep=10)  # meta.json first
        else:
            faults.crash_at(point, after=2)
        ledger = DurableLedger(
            directory, floor, fsync="always",
            fs=FaultyFS(faults), faults=faults,
        )
        acked = 0
        crashed = False
        for _ in range(3):
            try:
                if ledger.charge("u", HALF).outcome == "charged":
                    acked += 1
            except InjectedCrash:
                crashed = True
                break
        assert crashed, f"kill point {point} never fired"
        # the crashed instance refuses further use (it is "dead"):
        with pytest.raises(LedgerUnavailableError):
            ledger.charge("u", HALF)

        recovered = DurableLedger(directory, floor)
        budget = recovered.view("u")
        cum = Fraction(1) if budget is None else budget.cumulative_alpha
        assert acked <= acked_max
        # never more permissive than what was acknowledged/released:
        assert cum <= HALF ** acked
        # never over-spent relative to everything attempted:
        assert cum >= HALF ** 3
        assert cum >= floor
        # and the recovered ledger keeps enforcing the floor exactly:
        remaining = 0
        while recovered.charge("u", HALF).outcome == "charged":
            remaining += 1
        assert recovered.view("u").cumulative_alpha >= floor
        recovered.close()

    def test_after_fsync_crash_keeps_the_charge(self, tmp_path):
        """The ambiguous case: the charge is durable but the in-memory
        ack died. Recovery must keep it (over-protect, never refill)."""
        directory = tmp_path / "ledger"
        faults = FaultInjector().crash_at("charge.after-fsync")
        ledger = DurableLedger(directory, fsync="always", faults=faults)
        with pytest.raises(InjectedCrash):
            ledger.charge("u", HALF)
        recovered = DurableLedger(directory)
        assert recovered.view("u").cumulative_alpha == HALF
        recovered.close()

    def test_before_append_crash_spends_nothing(self, tmp_path):
        directory = tmp_path / "ledger"
        faults = FaultInjector().crash_at("charge.before-append")
        ledger = DurableLedger(directory, faults=faults)
        with pytest.raises(InjectedCrash):
            ledger.charge("u", HALF)
        recovered = DurableLedger(directory)
        assert recovered.view("u") is None
        recovered.close()
