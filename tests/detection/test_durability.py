"""Durability layer: report journal, snapshot store, durable-session
recovery."""

import hashlib
import json
import threading

import pytest

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
from repro.errors import RecoveryError
from repro.history.serialize import (
    event_to_json_line,
    event_to_json_line_reusing_time,
)
from repro.kernel import Delay, RandomPolicy, SimKernel, ThreadKernel
from repro.service.server import ServiceJournal
from tests.history.test_wal import count_fsyncs


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


class TestSnapshotStore:
    def test_write_and_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write({"round": 1})
        store.write({"round": 2})
        payload, path = store.load_latest()
        assert payload == {"round": 2}
        assert path.name == "snapshot-000002.json"

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write({"round": 1})
        newest = store.write({"round": 2})
        newest.write_text('{"kind": "engine-snapshot", "chec', encoding="utf-8")
        payload, path = store.load_latest()
        assert payload == {"round": 1}
        assert store.corrupt_skipped == 1

    def test_checksum_mismatch_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        newest = store.write({"round": 1})
        body = json.loads(newest.read_text(encoding="utf-8"))
        body["payload"]["round"] = 99  # tamper without re-checksumming
        newest.write_text(json.dumps(body), encoding="utf-8")
        assert store.load_latest() is None
        assert store.corrupt_skipped == 1

    def test_prunes_beyond_keep(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for round_index in range(5):
            store.write({"round": round_index})
        assert len(store.paths()) == 2
        payload, __ = store.load_latest()
        assert payload == {"round": 4}

    def test_reopened_store_prunes_to_keep_without_listing(
        self, tmp_path, monkeypatch
    ):
        first = SnapshotStore(tmp_path, keep=5)
        for round_index in range(5):
            first.write({"round": round_index})
        store = SnapshotStore(tmp_path, keep=2)

        def listed():
            raise AssertionError("write listed the snapshot directory")

        monkeypatch.setattr(store, "paths", listed)
        newest = store.write({"round": 5})
        monkeypatch.undo()
        assert store.paths() == [tmp_path / "snapshot-000005.json", newest]
        payload, __ = store.load_latest()
        assert payload == {"round": 5}

    def test_snapshots_order_by_number_past_six_digits(self, tmp_path):
        # Names are zero-padded to six digits only, so as strings
        # ``snapshot-1000000.json`` sorts before ``snapshot-999999.json``.
        store = SnapshotStore(tmp_path)
        store._next_index = 999_998
        for round_index in range(3):
            store.write({"round": round_index})
        payload, path = store.load_latest()
        assert (path.name, payload) == ("snapshot-1000000.json", {"round": 2})
        reopened = SnapshotStore(tmp_path, keep=3)
        assert reopened.load_latest()[1].name == "snapshot-1000000.json"
        assert reopened.write({"round": 3}).name == "snapshot-1000001.json"
        assert [path.name for path in reopened.paths()] == [
            "snapshot-999999.json",
            "snapshot-1000000.json",
            "snapshot-1000001.json",
        ]
        assert reopened.load_latest()[0] == {"round": 3}

    def test_file_is_the_checksummed_sort_keys_text(self, tmp_path):
        payload = {"zeta": [1, 2.5, None], "alpha": {"b": "\u00e9", "a": 1}}
        path = SnapshotStore(tmp_path).write(payload)
        canonical = json.dumps(payload, sort_keys=True)
        checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert path.read_text(encoding="utf-8") == (
            '{"kind": "engine-snapshot", "checksum": "' + checksum
            + '", "payload": ' + canonical + "}"
        )

    def test_insertion_ordered_payload_still_loads(self, tmp_path):
        # Snapshots written with ``json.dump`` of the whole body keep the
        # payload's insertion order; the checksum covers its sort-keys
        # text, so they load exactly like sorted ones.
        payload = {"zeta": 1, "alpha": {"y": 2, "x": [3.25]}}
        body = {
            "kind": "engine-snapshot",
            "checksum": hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode("utf-8")
            ).hexdigest(),
            "payload": payload,
        }
        path = tmp_path / "snapshot-000001.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)
        store = SnapshotStore(tmp_path)
        loaded, __ = store.load_latest()
        assert loaded == payload
        assert store.corrupt_skipped == 0
        assert store.write(payload).name == "snapshot-000002.json"

    def test_crash_before_rename_keeps_previous(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write({"round": 1})

        def boom():
            store.before_rename = None
            raise RuntimeError("crash")

        store.before_rename = boom
        with pytest.raises(RuntimeError):
            store.write({"round": 2})
        payload, __ = store.load_latest()
        assert payload == {"round": 1}


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
        newest = crashed.shards[0].durable.snapshots.paths()[-1]
        newest.write_text("garbage", encoding="utf-8")
        __, __, rebuilt = build_durable(tmp_path)
        [summary] = rebuilt.recover()
        assert summary.snapshot_fallbacks >= 1
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
        before = entry.algorithm1.state_dict()
        assert before["carried"], "run should end on verified carried lists"
        reports_before = [report_key(r) for r in crashed.delivered_reports]
        crashed.close()

        kernel, __, rebuilt = build_durable(tmp_path)
        rebuilt.recover()
        restored = rebuilt.entries[0].algorithm1
        assert restored.hits == before["hits"]
        assert restored.rebases == before["rebases"]
        assert restored.carried
        # The first post-recovery checkpoint resumes mid-stream: the
        # carried lists are reused (a hit, not a rebase) and no spurious
        # report appears on the healthy, idle monitor.  (Advance the fresh
        # kernel's clock past the restored checkpoint time first.)
        def idle():
            yield Delay(5.0)

        kernel.spawn(idle(), "idle")
        kernel.run(until=5.0)
        rebuilt.checkpoint()
        assert restored.hits == before["hits"] + 1
        assert restored.rebases == before["rebases"]
        delivered = [report_key(r) for r in rebuilt.delivered_reports]
        assert delivered == reports_before
        rebuilt.close()


class TestSnapshotAtomicity:
    def test_release_during_snapshot_is_not_lost_on_recovery(self, tmp_path):
        # A workload thread releases the allocator after the snapshot read
        # the Algorithm-3 state and before it read the sink's seq.  Unless
        # the payload is one atomic cut, the seq covers a Release the
        # restored checker never saw, replay starts past it, and the
        # process's next Request reads as a second acquisition (ST-8a).
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
        snapshot_state = durable.supervisor.snapshot_state

        def mid_payload(entries):
            # The checkers are already read; let the Release race the
            # sinks.  Inside the atomic section it waits for the lock.
            release.set()
            released.wait(timeout=0.3)
            return snapshot_state(entries)

        durable.supervisor.snapshot_state = mid_payload
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
        before = wal.fsyncs
        session.checkpoint()
        # The cut syncs the new events; the snapshot's flush finds
        # nothing new.  The other fsync is the snapshot file's own.
        assert wal.fsyncs - before == 1
        assert len(calls) == 2
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
