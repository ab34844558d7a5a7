"""Durability layer: report journal, snapshot store, durable-session
recovery."""

import hashlib
import json
import os
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SingleResourceAllocator
from repro.detection import (
    Confidence,
    DetectionSession,
    DetectorConfig,
    FaultReport,
    ReportJournal,
    SnapshotStore,
    STRule,
    report_from_dict,
    report_key,
    report_to_dict,
)
from repro.detection.durability import SNAPSHOT_SLOTS
from repro.errors import RecoveryError
from repro.history import EventKind, SchedulingEvent
from repro.history.serialize import (
    event_to_json_line,
    event_to_json_line_reusing_time,
)
from repro.kernel import Delay, RandomPolicy, SimKernel, ThreadKernel
from repro.service.server import ServiceJournal
from tests.history.test_serialize import STATE_SLOTS
from tests.history.test_wal import count_fsyncs


#: The keys of the keyed event objects earlier formats wrote, in the
#: order of an event row's fields.
EVENT_KEYS = ("seq", "event", "pid", "pname", "time", "flag", "cond")


def sample_report(detected_at=1.5, rule=STRule.RELEASE_REQUIRES_REQUEST):
    return FaultReport(
        rule=rule,
        message="Release without a matching Request",
        monitor="allocator",
        detected_at=detected_at,
        pids=(3,),
        event_seq=12,
        window_start=1.0,
        confidence=Confidence.CONFIRMED,
    )


class TestReportCodec:
    def test_round_trip(self):
        report = sample_report()
        assert report_from_dict(report_to_dict(report)) == report

    def test_key_is_stable_and_discriminating(self):
        report = sample_report()
        assert report_key(report) == report_key(sample_report())
        assert report_key(report) != report_key(sample_report(detected_at=2.0))
        assert report_key(report) != report_key(
            sample_report(rule=STRule.NO_DUPLICATE_REQUEST)
        )


class TestReportJournal:
    def test_admit_then_dedup(self, tmp_path):
        journal = ReportJournal(tmp_path / "durable.reports")
        report = sample_report()
        assert journal.admit(report) is True
        assert journal.admit(report) is False
        assert journal.journaled == 1
        assert journal.deduplicated == 1

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "durable.reports"
        journal = ReportJournal(path)
        journal.admit(sample_report())
        journal.close()
        reopened = ReportJournal(path)
        assert len(reopened.reports) == 1
        # The restarted process re-deriving the same report is rejected.
        assert reopened.admit(sample_report()) is False

    def test_torn_final_line_truncated(self, tmp_path):
        path = tmp_path / "durable.reports"
        journal = ReportJournal(path)
        journal.admit(sample_report())
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"rule": "ST-8b", "monit')
        reopened = ReportJournal(path)
        assert reopened.torn_tails_truncated == 1
        assert len(reopened.reports) == 1
        # The interrupted append never surfaced; admitting it again works.
        assert reopened.admit(sample_report(detected_at=9.0)) is True

    def test_junk_complete_last_line_truncated(self, tmp_path):
        path = tmp_path / "durable.reports"
        journal = ReportJournal(path)
        journal.admit(sample_report())
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        reopened = ReportJournal(path)
        assert reopened.torn_tails_truncated == 1
        assert len(reopened.reports) == 1
        assert path.read_text(encoding="utf-8").count("\n") == 1

    def test_junk_middle_line_raises(self, tmp_path):
        path = tmp_path / "durable.reports"
        journal = ReportJournal(path)
        journal.admit(sample_report())
        journal.admit(sample_report(detected_at=2.0))
        journal.close()
        first, second = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text(first + "not json at all\n" + second, encoding="utf-8")
        with pytest.raises(RecoveryError, match="line 2"):
            ReportJournal(path)

    def test_non_object_middle_line_raises(self, tmp_path):
        path = tmp_path / "durable.reports"
        journal = ReportJournal(path)
        journal.admit(sample_report())
        journal.admit(sample_report(detected_at=2.0))
        journal.close()
        first, second = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text(first + "[1, 2]\n" + second, encoding="utf-8")
        with pytest.raises(RecoveryError, match="durable.reports line 2"):
            ReportJournal(path)

    @pytest.mark.parametrize("field", ["rule", "monitor", "confidence"])
    def test_report_missing_a_field_names_file_and_line(self, tmp_path, field):
        path = tmp_path / "durable.reports"
        journal = ReportJournal(path)
        journal.admit(sample_report())
        journal.admit(sample_report(detected_at=2.0))
        journal.close()
        first, second = path.read_text(encoding="utf-8").splitlines(True)
        record = json.loads(second)
        del record[field]
        path.write_text(first + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(
            RecoveryError, match="durable.reports line 2: malformed report"
        ):
            ReportJournal(path)


def two_report_journal(journal_class, path):
    """Write two reports through ``journal_class``; return the lines."""
    journal = journal_class(path)
    journal.admit(sample_report())
    journal.admit(sample_report(detected_at=2.0))
    journal.close()
    return path.read_text(encoding="utf-8").splitlines(True)


@pytest.mark.parametrize("journal_class", [ReportJournal, ServiceJournal])
class TestEitherJournalLoads:
    """The load path both exactly-once journals share."""

    def test_reopen_then_dedup(self, tmp_path, journal_class):
        path = tmp_path / "journal.jsonl"
        two_report_journal(journal_class, path)
        reopened = journal_class(path)
        assert len(reopened.reports) == 2
        assert reopened.admit(sample_report()) is False
        assert reopened.deduplicated == 1

    def test_torn_final_line_truncated(self, tmp_path, journal_class):
        path = tmp_path / "journal.jsonl"
        two_report_journal(journal_class, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "report", "rule": "ST-8b", "monit')
        reopened = journal_class(path)
        assert reopened.torn_tails_truncated == 1
        assert len(reopened.reports) == 2
        assert reopened.admit(sample_report(detected_at=9.0)) is True

    def test_junk_complete_last_line_truncated(self, tmp_path, journal_class):
        path = tmp_path / "journal.jsonl"
        two_report_journal(journal_class, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        reopened = journal_class(path)
        assert reopened.torn_tails_truncated == 1
        assert len(reopened.reports) == 2
        assert path.read_text(encoding="utf-8").count("\n") == 2

    @pytest.mark.parametrize("corrupt", ["not json at all", "[1, 2]"])
    def test_corrupt_middle_line_names_file_and_line(
        self, tmp_path, journal_class, corrupt
    ):
        path = tmp_path / "journal.jsonl"
        first, second = two_report_journal(journal_class, path)
        path.write_text(first + corrupt + "\n" + second, encoding="utf-8")
        with pytest.raises(RecoveryError, match="journal.jsonl line 2: corrupt"):
            journal_class(path)

    def test_complete_array_last_line_is_corruption(
        self, tmp_path, journal_class
    ):
        # The torn-tail scan counts an array line as a record (a WAL line
        # is an event row), so in a journal it is corruption, not a tail.
        path = tmp_path / "journal.jsonl"
        two_report_journal(journal_class, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
        with pytest.raises(RecoveryError, match="jsonl line 3: corrupt"):
            journal_class(path)

    @pytest.mark.parametrize("field", ["rule", "monitor", "confidence"])
    def test_report_missing_a_field_names_file_and_line(
        self, tmp_path, journal_class, field
    ):
        path = tmp_path / "journal.jsonl"
        first, second = two_report_journal(journal_class, path)
        record = json.loads(second)
        del record[field]
        path.write_text(first + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(
            RecoveryError, match="journal.jsonl line 2: malformed report"
        ):
            journal_class(path)


def padded(index, size):
    """A snapshot payload of roughly ``size`` bytes, told apart by
    ``index``."""
    return {"round": index, "pad": "x" * size}


def record_length(path):
    """Bytes of the record at the start of a slot file, header included."""
    data = path.read_bytes()
    newline = data.index(b"\n")
    return newline + 1 + json.loads(data[:newline])["length"]


class TestSnapshotStore:
    def test_write_and_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write({"round": 1})
        path = store.write({"round": 2})
        assert store.load_latest() == ({"round": 2}, path)
        assert store.corrupt_skipped == 0
        assert SnapshotStore(tmp_path).load_latest() == ({"round": 2}, path)

    def test_slot_holds_one_checksummed_record(self, tmp_path):
        # Insertion order, no sort: the payload bytes are json.dumps's.
        payload = {"zeta": [1, 2.5, None], "alpha": {"b": "\u00e9", "a": 1}}
        path = SnapshotStore(tmp_path).write(payload)
        assert path == tmp_path / "slot-1.snapshot"
        body = json.dumps(payload).encode()
        checksum = hashlib.sha256(b"1\n" + body).hexdigest()
        assert path.read_bytes() == (
            b'{"kind":"engine-snapshot","number":1,"length":%d,'
            b'"sha256":"%s"}\n' % (len(body), checksum.encode())
            + body
        )

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_corrupt_latest_falls_back(self, data):
        # Torn at any offset, or any one byte changed.
        with tempfile.TemporaryDirectory() as directory:
            store = SnapshotStore(directory)
            # Each payload is shorter than the last, so the newest slot
            # (number 5, over number 1) also holds a stale tail.
            payloads = [padded(index, 200 - 30 * index) for index in range(5)]
            for payload in payloads:
                newest = store.write(payload)
            size = record_length(newest)
            assert newest.stat().st_size > size
            offset = data.draw(st.integers(0, size - 1), label="offset")
            damaged = bytearray(newest.read_bytes())
            if data.draw(st.booleans(), label="flip one byte"):
                damaged[offset] ^= data.draw(st.integers(1, 255), label="mask")
            else:
                del damaged[offset:]
            newest.write_bytes(bytes(damaged))
            reopened = SnapshotStore(directory)
            payload, __ = reopened.load_latest()
            assert payload == payloads[3]
            assert reopened.corrupt_skipped == 1
            # The reopened store numbers on from the record it returned,
            # so its next write replaces the torn slot.
            assert reopened.write(padded(5, 0)) == newest
            assert reopened.load_latest()[0] == padded(5, 0)

    def test_changed_header_byte_falls_back(self, tmp_path):
        # Every one-bit flip and every change to a byte's low four bits,
        # so every digit of the number turned into each other digit: the
        # checksum covers the number, so none passes for a newer record.
        store = SnapshotStore(tmp_path)
        for index in range(5):
            newest = store.write(padded(index, 10))
        record = newest.read_bytes()
        for offset in range(record.index(b"\n") + 1):
            for mask in (*range(1, 16), 0x10, 0x20, 0x40, 0x80):
                damaged = bytearray(record)
                damaged[offset] ^= mask
                newest.write_bytes(bytes(damaged))
                payload, __ = SnapshotStore(tmp_path).load_latest()
                assert payload == padded(3, 10), (offset, mask)

    def test_checksum_mismatch_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.write({"round": 1})
        # Tamper with the payload without re-checksumming it.
        record = path.read_bytes()
        path.write_bytes(record.replace(b'"round": 1', b'"round": 9'))
        assert store.load_latest() is None
        assert store.corrupt_skipped == 1

    def test_snapshots_order_by_number_past_six_digits(self, tmp_path):
        # The newest record has the highest number, whatever its slot:
        # number 1000000 sits in slot 0, before 999999 in slot 3.
        store = SnapshotStore(tmp_path)
        store._next_number = 999_998
        for round_index in range(3):
            path = store.write({"round": round_index})
        assert path == tmp_path / "slot-0.snapshot"
        assert store.load_latest() == ({"round": 2}, path)
        reopened = SnapshotStore(tmp_path)
        path = reopened.write({"round": 3})
        assert path == tmp_path / "slot-1.snapshot"
        assert reopened.load_latest() == ({"round": 3}, path)

    def test_shorter_snapshot_over_a_longer_one_loads(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for index in range(SNAPSHOT_SLOTS):
            store.write(padded(index, 500))
        longer = (tmp_path / "slot-1.snapshot").stat().st_size
        path = store.write(padded(SNAPSHOT_SLOTS, 10))
        assert path == tmp_path / "slot-1.snapshot"
        assert path.stat().st_size == longer > record_length(path)
        assert SnapshotStore(tmp_path).load_latest() == (
            padded(SNAPSHOT_SLOTS, 10), path
        )

    def test_fifth_write_overwrites_the_oldest_slot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        paths = [store.write({"round": index}) for index in range(5)]
        assert len(set(paths[:4])) == SNAPSHOT_SLOTS
        assert paths[4] == paths[0]
        assert sorted(tmp_path.iterdir()) == sorted(paths[:4])
        assert store.load_latest() == ({"round": 4}, paths[4])
        reopened = SnapshotStore(tmp_path)
        assert reopened.write({"round": 5}) == paths[1]
        assert reopened.load_latest() == ({"round": 5}, paths[1])
        assert sorted(tmp_path.iterdir()) == sorted(paths[:4])

    def test_old_layout_snapshots_are_refused(self, tmp_path):
        for name in ("snapshot-000003.json", "snapshot-000004.json"):
            (tmp_path / name).write_text("{}", encoding="utf-8")
        with pytest.raises(
            RecoveryError,
            match="snapshot-000003.json, snapshot-000004.json",
        ):
            SnapshotStore(tmp_path)


# ------------------------------------------------------------ durable engine


def build_durable(root, *, seed=3, fsync="interval", label="allocator"):
    """A one-shard durable session over one allocator, checkpointed by
    hand (no pacing process)."""
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    allocator = SingleResourceAllocator(kernel, name="allocator")
    session = DetectionSession(
        kernel,
        config=DetectorConfig(interval=0.25, tmax=60.0, tio=60.0, tlimit=60.0),
        durable_dir=root,
        fsync=fsync,
    )
    session.register(allocator, label=label)
    return kernel, allocator, session


class TestWalEncoder:
    @pytest.mark.parametrize(
        "make_kernel, encoder",
        [
            (
                lambda: SimKernel(RandomPolicy(seed=3)),
                event_to_json_line_reusing_time,
            ),
            (ThreadKernel, event_to_json_line),
        ],
        ids=["sim", "threads"],
    )
    def test_time_text_is_reused_only_on_a_virtual_clock(
        self, tmp_path, make_kernel, encoder
    ):
        # A wall clock makes a new float at every reading, so reuse would
        # only add a miss to each line.
        kernel = make_kernel()
        allocator = SingleResourceAllocator(kernel, name="allocator")
        session = DetectionSession(kernel, durable_dir=tmp_path)
        session.register(allocator, label="allocator")
        assert allocator.history._encode_line is encoder
        session.close()


def idle_until(kernel, time):
    """Advance ``kernel``'s clock to ``time`` with an idle process."""

    def idle():
        yield Delay(time - kernel.now())

    kernel.spawn(idle(), "idle")
    kernel.run(until=time)


def run_with_misuse(root, *, rounds=4):
    """A run whose rogue release produces real-time reports, checkpointed."""
    kernel, allocator, session = build_durable(root)
    session.baseline()

    def misuser():
        yield Delay(0.1)
        yield from allocator.release()  # ST-8b + ST-PX
        yield Delay(0.2)
        yield from allocator.request()
        yield Delay(0.05)
        yield from allocator.release()

    def driver():
        for __ in range(rounds):
            yield Delay(0.25)
            session.checkpoint()

    kernel.spawn(misuser(), "misuser")
    kernel.spawn(driver(), "driver")
    kernel.run(until=rounds * 0.25 + 5)
    kernel.raise_failures()
    return session


def flaky_admit(journal):
    """Make ``journal.admit`` raise ``OSError`` once (a full disk), then
    behave normally."""
    admit = journal.admit

    def flaky(report):
        journal.admit = admit
        raise OSError("no space left on device")

    journal.admit = flaky


class TestJournalWriteFailure:
    def test_failed_admit_leaves_reports_for_the_retry(self, tmp_path):
        kernel = SimKernel(RandomPolicy(seed=3), on_deadlock="stop")
        allocator = SingleResourceAllocator(kernel, name="allocator")
        session = DetectionSession(
            kernel,
            config=DetectorConfig(
                interval=0.5, tmax=60.0, tio=60.0, tlimit=60.0,
                realtime_orders=False,
            ),
            durable_dir=tmp_path,
        )
        session.register(allocator, label="allocator")
        flaky_admit(session.shards[0].durable.journal)

        def rogue(delay):
            yield Delay(delay)
            yield from allocator.release()

        kernel.spawn(rogue(0.2), "rogue-0")
        kernel.spawn(rogue(1.2), "rogue-1")
        session.start()
        kernel.run(until=3.0)
        session.stop()
        assert len(session.reports) == 4
        assert session.delivered_reports == session.reports
        kinds = [event.kind for __, event in session.supervisor_events()]
        assert kinds[:2] == ["failure", "retry"]
        session.close()


class TestDurableEngine:
    def test_checkpoint_surfaces_each_report_once(self, tmp_path):
        session = run_with_misuse(tmp_path)
        assert len(session.delivered_reports) >= 2  # ST-8b and ST-PX at least
        keys = [report_key(report) for report in session.delivered_reports]
        assert len(keys) == len(set(keys))
        assert session.shards[0].durable.journal.deduplicated == 0
        session.close()

    def test_recover_restores_the_report_stream(self, tmp_path):
        crashed = run_with_misuse(tmp_path)
        expected = [report_key(report) for report in crashed.delivered_reports]
        crashed.close()  # the "crash": state lives only in tmp_path now
        __, __, rebuilt = build_durable(tmp_path)
        [summary] = rebuilt.recover()
        assert summary.reports_restored == len(expected)
        assert [report_key(r) for r in rebuilt.delivered_reports] == expected
        assert rebuilt.durability_counters["recoveries"] == 1
        rebuilt.close()

    def test_recover_on_fresh_root_is_empty(self, tmp_path):
        __, __, session = build_durable(tmp_path)
        [summary] = session.recover()
        assert summary.snapshot_path is None
        assert summary.reports_restored == 0
        assert session.delivered_reports == []
        session.close()

    def test_recover_rejects_mismatched_fleet(self, tmp_path):
        crashed = run_with_misuse(tmp_path)
        crashed.close()
        __, __, rebuilt = build_durable(tmp_path, label="somebody-else")
        with pytest.raises(RecoveryError):
            rebuilt.recover()
        rebuilt.close()

    def test_recover_falls_back_past_corrupt_snapshot(self, tmp_path):
        crashed = run_with_misuse(tmp_path)
        expected = [report_key(report) for report in crashed.delivered_reports]
        crashed.close()
        __, newest = crashed.shards[0].durable.snapshots.load_latest()
        newest.write_text("garbage", encoding="utf-8")
        __, __, rebuilt = build_durable(tmp_path)
        [summary] = rebuilt.recover()
        assert summary.snapshot_fallbacks == 1
        assert summary.snapshot_path not in (None, str(newest))
        # The journal, not the snapshot, owns delivery: still exactly once.
        assert [report_key(r) for r in rebuilt.delivered_reports] == expected
        rebuilt.close()

    def test_counters_and_repr(self, tmp_path):
        session = run_with_misuse(tmp_path)
        counters = session.durability_counters
        for name in (
            "wal_bytes_written",
            "wal_fsyncs",
            "snapshots_written",
            "recoveries",
            "reports_deduplicated",
        ):
            assert name in counters
        assert counters["wal_bytes_written"] > 0
        assert counters["snapshots_written"] > 0
        text = repr(session.shards[0].durable)
        assert "wal_bytes" in text and "recoveries" in text
        session.close()

    def test_statistics_pick_up_durability_counters(self, tmp_path):
        session = run_with_misuse(tmp_path)
        stats = session.statistics()
        assert stats.counters["wal_bytes_written"] > 0
        assert "durability:" in stats.render()
        session.close()

    def test_recover_restores_incremental_rule_state(self, tmp_path):
        crashed = run_with_misuse(tmp_path)
        entry = crashed.entries[0]
        hits, rebases, __, carried = entry.algorithm1.state_dict()
        assert carried, "run should end on verified carried lists"
        reports_before = [report_key(r) for r in crashed.delivered_reports]
        crashed.close()

        kernel, __, rebuilt = build_durable(tmp_path)
        rebuilt.recover()
        restored = rebuilt.entries[0].algorithm1
        assert restored.hits == hits
        assert restored.rebases == rebases
        assert restored.carried
        # The first post-recovery checkpoint resumes mid-stream: the
        # lists rebuilt from the restored base state are reused (a hit,
        # not a rebase) and no spurious report appears on the healthy,
        # idle monitor.  (Advance the fresh kernel's clock past the
        # restored checkpoint time first.)
        idle_until(kernel, 5.0)
        rebuilt.checkpoint()
        assert restored.hits == hits + 1
        assert restored.rebases == rebases
        delivered = [report_key(r) for r in rebuilt.delivered_reports]
        assert delivered == reports_before
        rebuilt.close()

    def test_recover_rebases_lists_that_were_not_carried(self, tmp_path):
        # A phantom Enter (recorded, but made by no process) leaves the
        # replayed lists unequal to the monitor's actual state at the last
        # checkpoint, so the last snapshot stores "not carried".  The
        # first window after recovery must re-seed the lists (a rebase)
        # and report exactly what the uninterrupted run reports.
        def run(root):
            kernel, allocator, session = build_durable(root)
            session.baseline()

            def phantom():
                yield Delay(0.9)  # inside the last window
                sink = allocator.history
                sink.record(
                    SchedulingEvent(
                        sink.next_seq(), EventKind.ENTER, 99, "Request",
                        kernel.now(), 1,
                    )
                )

            def driver():
                for __ in range(4):
                    yield Delay(0.25)
                    session.checkpoint()

            kernel.spawn(phantom(), "phantom")
            kernel.spawn(driver(), "driver")
            kernel.run(until=6.0)
            kernel.raise_failures()
            return kernel, session

        kernel, uninterrupted = run(tmp_path / "uninterrupted")
        checker = uninterrupted.entries[0].algorithm1
        hits, rebases, __, carried = checker.state_dict()
        assert not carried, "the phantom must leave the lists unverified"
        idle_until(kernel, 5.0)
        uninterrupted.checkpoint()
        assert (checker.hits, checker.rebases) == (hits, rebases + 1)
        expected = [report_key(r) for r in uninterrupted.delivered_reports]
        uninterrupted.close()

        __, crashed = run(tmp_path / "crashed")
        crashed.close()
        kernel, __, rebuilt = build_durable(tmp_path / "crashed")
        rebuilt.recover()
        restored = rebuilt.entries[0].algorithm1
        assert not restored.carried
        assert (restored.hits, restored.rebases) == (hits, rebases)
        idle_until(kernel, 5.0)
        rebuilt.checkpoint()
        assert (restored.hits, restored.rebases) == (hits, rebases + 1)
        assert [report_key(r) for r in rebuilt.delivered_reports] == expected
        rebuilt.close()

    def test_keyed_snapshot_of_the_earlier_format_is_refused(self, tmp_path):
        session = run_with_misuse(tmp_path)
        session.close()
        # A slot holding a keyed payload, as the earlier format wrote it.
        store = SnapshotStore(tmp_path / "shard-0" / "snapshots")
        path = store.write(
            {"kind": "durable-engine", "supervisor": {}, "checkers": {}}
        )
        __, __, rebuilt = build_durable(tmp_path)
        with pytest.raises(RecoveryError, match=str(path)) as excinfo:
            rebuilt.recover()
        assert "keyed" in str(excinfo.value)
        rebuilt.close()

    def test_rows_1_snapshot_is_refused(self, tmp_path):
        session = run_with_misuse(tmp_path)
        session.close()
        # A slot holding the payload as rows-1 wrote it: the same rows,
        # but each sink's base state and pending events keyed.
        store = SnapshotStore(tmp_path / "shard-0" / "snapshots")
        payload, __ = store.load_latest()
        tag, supervisor, engine = payload
        for monitor in supervisor[2]:
            sink = monitor[7]
            sink[2] = {"kind": "state", **dict(zip(STATE_SLOTS, sink[2]))}
            sink[3] = [
                {"kind": "event", **dict(zip(EVENT_KEYS, row))}
                for row in sink[3]
            ]
        path = store.write(["durable-engine/rows-1", supervisor, engine])
        __, __, rebuilt = build_durable(tmp_path)
        with pytest.raises(RecoveryError, match=str(path)) as excinfo:
            rebuilt.recover()
        assert "'durable-engine/rows-1'" in str(excinfo.value)
        rebuilt.close()

    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda payload: payload[:2], "engine"),
            (lambda payload: ["durable-engine/rows-0", *payload[1:]],
             "durable-engine/rows-0"),
            (lambda payload: [payload[0], payload[1][:2], payload[2]],
             "monitors"),
            (lambda payload: [payload[0], payload[1], [*payload[2], 0]],
             "check_failures"),
        ],
        ids=["short-payload", "unknown-tag", "short-supervisor",
             "long-engine-row"],
    )
    def test_damaged_rows_are_refused_naming_the_field(
        self, tmp_path, damage, field
    ):
        session = run_with_misuse(tmp_path)
        session.close()
        store = SnapshotStore(tmp_path / "shard-0" / "snapshots")
        payload, __ = store.load_latest()
        path = store.write(damage(payload))
        __, __, rebuilt = build_durable(tmp_path)
        with pytest.raises(RecoveryError) as excinfo:
            rebuilt.recover()
        assert str(path) in str(excinfo.value)
        assert field in str(excinfo.value)
        rebuilt.close()


class TestSnapshotAtomicity:
    def test_release_during_snapshot_is_not_lost_on_recovery(self, tmp_path):
        # A workload thread releases the allocator after the snapshot read
        # the sink's seq and before it read the Algorithm-3 state.  Unless
        # the payload is one atomic cut, the restored checker has seen a
        # Release the seq does not cover, replay applies it a second
        # time, and it reads as a release without a request (ST-8b).
        kernel = ThreadKernel(time_scale=0.002)
        allocator = SingleResourceAllocator(kernel, name="allocator")
        config = DetectorConfig(
            interval=0.25, tmax=60.0, tio=60.0, tlimit=60.0
        )

        def build():
            session = DetectionSession(
                kernel, config=config, durable_dir=tmp_path, fsync="never"
            )
            session.register(allocator, label="allocator")
            return session

        session = build()
        session.baseline()
        held, release, released, recovered = (
            threading.Event() for __ in range(4)
        )

        def user():
            yield from allocator.request()
            held.set()
            release.wait(timeout=10)
            yield from allocator.release()
            released.set()
            recovered.wait(timeout=10)
            yield from allocator.request()
            yield from allocator.release()

        pid = kernel.spawn(user(), "user")
        assert held.wait(timeout=10)
        durable = session.shards[0].durable
        checker = session.entries[0].algorithm3
        state_dict = checker.state_dict

        def mid_payload():
            # The sink is already read; let the Release race the checker.
            # Inside the atomic section it waits for the lock.
            release.set()
            released.wait(timeout=0.3)
            return state_dict()

        checker.state_dict = mid_payload
        durable.commit()
        assert released.wait(timeout=10)
        session.close()
        session = build()
        session.recover()
        recovered.set()
        # Returns once the user ends; the deadline only bounds a hung run.
        result = kernel.run(until=5_000.0)
        session.close()
        assert result.live == ()
        assert kernel.failures() == {}
        assert [r for r in session.reports if pid in r.pids] == []


class TestSyncFlushAtCheckpoint:
    def test_interval_checkpoint_fsyncs_the_wal_once(
        self, tmp_path, monkeypatch
    ):
        kernel, allocator, session = build_durable(tmp_path)
        session.baseline()
        wal = allocator.history

        def worker():
            yield from allocator.request()
            yield from allocator.release()

        kernel.spawn(worker(), "worker")
        kernel.run(until=0.1)
        calls = count_fsyncs(monkeypatch)
        datasyncs = []
        fdatasync = os.fdatasync

        def counting(fd):
            datasyncs.append(fd)
            fdatasync(fd)

        monkeypatch.setattr(os, "fdatasync", counting)
        before = wal.fsyncs
        session.checkpoint()
        # The cut syncs the new events; the snapshot's flush finds
        # nothing new.  The snapshot slot syncs its own data.
        assert wal.fsyncs - before == 1
        assert len(calls) == 1
        assert len(datasyncs) == 1
        session.close()


def durable_allocators(root, labels=("a", "b")):
    """A one-shard durable session over one allocator per label, checked
    every virtual second."""
    kernel = SimKernel(RandomPolicy(seed=3), on_deadlock="stop")
    session = DetectionSession(
        kernel,
        config=DetectorConfig(interval=1.0, tmax=60.0, tio=60.0, tlimit=60.0),
        durable_dir=root,
    )
    allocators = {}
    for label in labels:
        allocators[label] = SingleResourceAllocator(kernel, name=label)
        session.register(allocators[label], label=label)
    return kernel, allocators, session


def segment_bytes(wal):
    return sum(path.stat().st_size for path in wal.segment_paths())


class TestUnregisterFromDurableSession:
    def test_reports_found_before_unregister_are_journaled(self, tmp_path):
        kernel, allocators, session = durable_allocators(tmp_path)

        def rogue():
            yield Delay(1.5)
            yield from allocators["a"].release()  # real-time ST-8b + ST-PX
            yield Delay(0.1)
            session.unregister("a")  # before the checkpoint at t = 2

        kernel.spawn(rogue(), "rogue")
        session.start()
        kernel.run(until=4.0)
        session.stop()
        kernel.raise_failures()
        delivered = sorted(r.rule_id for r in session.delivered_reports)
        assert delivered == ["ST-8b", "ST-PX"]
        journal = tmp_path / "shard-0" / "reports.jsonl"
        assert len(journal.read_text(encoding="utf-8").splitlines()) == 2
        session.close()

    def test_unregister_closes_the_wal(self, tmp_path):
        kernel, allocator, session = build_durable(tmp_path)
        session.baseline()
        wal = allocator.history
        session.unregister(allocator)
        assert wal.closed
        assert allocator.history is None
        written, on_disk = wal.bytes_written, segment_bytes(wal)

        def worker():
            for __ in range(50):
                yield from allocator.request()
                yield from allocator.release()

        kernel.spawn(worker(), "worker")
        kernel.run(until=5.0)
        kernel.raise_failures()
        session.close()
        assert wal.bytes_written == written
        assert segment_bytes(wal) == on_disk

    def test_rebuild_without_the_unregistered_monitor_recovers(self, tmp_path):
        __, __, session = durable_allocators(tmp_path)
        session.baseline()
        session.unregister("a")
        session.close()  # the "crash", before another checkpoint
        __, __, rebuilt = durable_allocators(tmp_path, labels=("b",))
        [summary] = rebuilt.recover()
        assert summary.snapshot_path is not None
        assert summary.snapshot_fallbacks == 0
        rebuilt.close()
