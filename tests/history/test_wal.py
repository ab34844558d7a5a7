"""WriteAheadLog: fsync policies, rotation, torn tails, replay, reopen."""

import json
import math
import os

import pytest

from repro.errors import CheckpointError, HistoryError
from repro.history import EventSink, FSYNC_POLICIES, WriteAheadLog
from repro.history.events import enter_event
from repro.history.states import SchedulingState


def event(seq, pid=1, t=None):
    return enter_event(seq, pid, "Send", t if t is not None else float(seq), flag=1)


def state(t):
    return SchedulingState(time=t, entry_queue=(), cond_queues={}, running=())


def make_wal(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "never")
    return WriteAheadLog(tmp_path / "wal", **kwargs)


class TestSinkProtocol:
    def test_is_an_event_sink(self, tmp_path):
        assert isinstance(make_wal(tmp_path), EventSink)

    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(HistoryError):
            WriteAheadLog(tmp_path / "wal", fsync="sometimes")

    def test_records_land_in_window_and_on_disk(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(5):
            wal.record(event(seq))
        assert wal.live_events == 5
        assert wal.total_recorded == 5
        wal.flush()
        durable = list(wal.iter_durable_events())
        assert [e.seq for e in durable] == list(range(5))

    def test_cut_drains_window_but_keeps_disk(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(4):
            wal.record(event(seq))
        segment = wal.cut(state(5.0))
        assert len(segment) == 4
        assert segment.complete
        assert wal.live_events == 0
        wal.flush()
        assert len(list(wal.iter_durable_events())) == 4

    def test_double_open_rejected(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        with pytest.raises(CheckpointError):
            wal.open(state(1.0))


class TestFsyncPolicies:
    def test_policy_tuple_is_exported(self):
        assert FSYNC_POLICIES == ("always", "interval", "never")

    def test_always_syncs_every_append(self, tmp_path):
        wal = make_wal(tmp_path, fsync="always")
        wal.open(state(0.0))
        for seq in range(7):
            wal.record(event(seq))
        assert wal.fsyncs == 7

    def test_interval_syncs_every_n_appends_and_on_cut(self, tmp_path):
        wal = make_wal(tmp_path, fsync="interval", fsync_every=4)
        wal.open(state(0.0))
        for seq in range(9):
            wal.record(event(seq))
        assert wal.fsyncs == 2  # after the 4th and 8th appends
        wal.cut(state(10.0))  # flushes the straggler
        assert wal.fsyncs == 3

    def test_never_never_syncs(self, tmp_path):
        wal = make_wal(tmp_path, fsync="never")
        wal.open(state(0.0))
        for seq in range(50):
            wal.record(event(seq))
        wal.cut(state(60.0))
        assert wal.fsyncs == 0


class TestAppendTiming:
    """Appends are timed one in 64, the first always; fsyncs every time."""

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_samples_the_first_append_and_every_64th(self, tmp_path, policy):
        wal = make_wal(tmp_path, fsync=policy)
        wal.open(state(0.0))
        wal.record(event(0))
        assert wal.append_latency.count == 1
        for seq in range(1, 130):
            wal.record(event(seq))
            assert wal.append_latency.count == math.ceil(wal.appends / 64)
        assert wal.appends == 130
        assert wal.append_latency.count == 3  # appends 1, 65 and 129
        wal.cut(state(200.0))
        assert wal.fsync_latency.count == wal.fsyncs

    def test_replayed_events_are_not_appends(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        with wal.replaying():
            wal.record(event(0))
        assert wal.appends == 0
        assert wal.append_latency.count == 0


def count_fsyncs(monkeypatch):
    """Count every ``os.fsync`` call from here on."""
    calls = []
    fsync = os.fsync

    def counting(fd):
        calls.append(fd)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestSyncFlush:
    """``flush(sync=True)`` fsyncs only when bytes reached the log since
    its last fsync."""

    def test_interval_sync_flush_after_a_cut_skips_the_fsync(
        self, tmp_path, monkeypatch
    ):
        wal = make_wal(tmp_path, fsync="interval")
        wal.open(state(0.0))
        calls = count_fsyncs(monkeypatch)
        for seq in range(3):
            wal.record(event(seq))
        wal.cut(state(5.0))  # syncs the three appends
        wal.flush(sync=True)  # nothing new: no second fsync
        assert len(calls) == 1

    def test_never_sync_flush_after_appends_fsyncs_once(
        self, tmp_path, monkeypatch
    ):
        wal = make_wal(tmp_path, fsync="never")
        wal.open(state(0.0))
        calls = count_fsyncs(monkeypatch)
        for seq in range(3):
            wal.record(event(seq))
        wal.flush(sync=True)
        assert len(calls) == 1
        wal.flush(sync=True)
        assert len(calls) == 1
        wal.record(event(3))
        wal.flush(sync=True)
        assert len(calls) == 2

    def test_reopened_log_counts_as_unsynced(self, tmp_path, monkeypatch):
        wal = make_wal(tmp_path, fsync="never")
        wal.open(state(0.0))
        wal.record(event(0))
        wal.close()
        calls = count_fsyncs(monkeypatch)
        # The earlier incarnation never synced its tail; the reopened
        # log's first sync covers it though this process wrote nothing.
        reopened = make_wal(tmp_path, fsync="never")
        reopened.flush(sync=True)
        assert len(calls) == 1
        reopened.flush(sync=True)
        assert len(calls) == 1


class TestSegmentRotation:
    def test_rotates_by_size(self, tmp_path):
        wal = make_wal(tmp_path, segment_bytes=256)
        wal.open(state(0.0))
        for seq in range(20):
            wal.record(event(seq))
        assert wal.segment_count > 1
        assert wal.segments_rotated == wal.segment_count - 1
        wal.flush()
        # Rotation loses nothing: the full stream reads back in order.
        assert [e.seq for e in wal.iter_durable_events()] == list(range(20))

    def test_bytes_written_matches_disk(self, tmp_path):
        wal = make_wal(tmp_path, segment_bytes=200)
        wal.open(state(0.0))
        for seq in range(12):
            wal.record(event(seq))
        wal.flush()
        on_disk = sum(path.stat().st_size for path in wal.segment_paths())
        assert wal.bytes_written == on_disk

    def test_segments_order_by_number_past_six_digits(self, tmp_path):
        # By name, segment-1000000.jsonl sorts before segment-999999.jsonl.
        wal = make_wal(tmp_path, segment_bytes=1)
        wal.open(state(0.0))
        for seq in range(2):
            wal.record(event(seq))
        wal.close()
        first, second = wal.segment_paths()
        first.rename(first.with_name("segment-999999.jsonl"))
        second.rename(second.with_name("segment-1000000.jsonl"))
        reopened = make_wal(tmp_path, segment_bytes=1)
        assert reopened.next_seq() == 2
        reopened.open(state(2.0))
        reopened.record(event(2))
        reopened.flush()
        assert [path.name for path in reopened.segment_paths()] == [
            "segment-999999.jsonl",
            "segment-1000000.jsonl",
            "segment-1000001.jsonl",
        ]
        assert [e.seq for e in reopened.iter_durable_events()] == [0, 1, 2]


class TestTornTails:
    def test_partial_final_line_truncated_on_reopen(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(3):
            wal.record(event(seq))
        wal.simulate_torn_append()
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.torn_tails_truncated == 1
        assert [e.seq for e in reopened.iter_durable_events()] == [0, 1, 2]

    def test_unparseable_complete_final_line_truncated(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        wal.record(event(0))
        wal.close()
        path = wal.segment_paths()[-1]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('[1,"Enter",1,\n')
        reopened = make_wal(tmp_path)
        assert reopened.torn_tails_truncated == 1
        assert [e.seq for e in reopened.iter_durable_events()] == [0]

    def test_truncated_length_prefix_truncated_on_reopen(self, tmp_path):
        # A crash can land between writing a frame's length header and
        # its body; the tail is then a bare integer line — valid JSON,
        # but not a record.  Regression: this used to survive the torn-
        # tail scan and crash replay with an AttributeError.
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(3):
            wal.record(event(seq))
        wal.simulate_torn_length_prefix()
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.torn_tails_truncated == 1
        assert [e.seq for e in reopened.iter_durable_events()] == [0, 1, 2]

    def test_new_appends_after_torn_prefix_recovery_replay(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        wal.record(event(0))
        wal.simulate_torn_length_prefix()
        wal.close()
        reopened = make_wal(tmp_path)
        reopened.open(state(1.0))
        reopened.record(event(1))
        reopened.flush()
        assert [e.seq for e in reopened.iter_durable_events()] == [0, 1]

    def test_corruption_before_the_tail_is_an_error(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        wal.record(event(0))
        wal.close()
        path = wal.segment_paths()[-1]
        raw = path.read_text(encoding="utf-8")
        path.write_text("not json at all\n" + raw, encoding="utf-8")
        # Non-tail corruption is not a crash artefact; reopen refuses it.
        with pytest.raises(HistoryError):
            make_wal(tmp_path)


    def test_non_utf8_byte_in_the_active_segment_fails_open(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(5):
            wal.record(event(seq))
        wal.close()
        path = wal.segment_paths()[-1]
        set_byte(path, 20, 0xFF)  # inside the first of five lines
        with pytest.raises(HistoryError, match=f"{path.name} line 1"):
            make_wal(tmp_path)

    def test_non_utf8_byte_in_a_sealed_segment_fails_replay(self, tmp_path):
        wal = make_wal(tmp_path, segment_bytes=1)  # one event per segment
        wal.open(state(0.0))
        for seq in range(3):
            wal.record(event(seq))
        wal.close()
        sealed = wal.segment_paths()[0]
        set_byte(sealed, 20, 0xFF)
        # Opening reads only the intact active segment; replay reads all.
        reopened = make_wal(tmp_path, segment_bytes=1)
        with pytest.raises(HistoryError, match=f"{sealed.name} line 1"):
            list(reopened.iter_durable_events())

    def test_non_utf8_torn_tail_is_skipped_and_truncated(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(3):
            wal.record(event(seq))
        wal.flush()
        path = wal.segment_paths()[-1]
        with open(path, "ab") as handle:
            handle.write(b'[3,"Enter",1,"\xff')
        assert [e.seq for e in wal.iter_durable_events()] == [0, 1, 2]
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.torn_tails_truncated == 1
        assert [e.seq for e in reopened.iter_durable_events()] == [0, 1, 2]


#: Complete final lines that a reopen strips as a torn tail, and a
#: partial row; replay must skip exactly those bytes too.
TORN_TAILS = {
    "float": b"1.5\n",
    "string": b'"x"\n',
    "true": b"true\n",
    "bare integer": b"17\n",
    "two digit lines": b"12\n34\n",
    "partial row": b'[3,"Enter",1,',
}


class TestTornTailAgreement:
    """Replay and reopen read a segment's tail through one grammar,
    ``good_jsonl_prefix``, in either order."""

    @staticmethod
    def log_with_tail(tmp_path, tail):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(3):
            wal.record(event(seq))
        wal.flush()
        path = wal.segment_paths()[-1]
        durable = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(tail)
        return wal, path, durable

    @pytest.mark.parametrize("tail", TORN_TAILS.values(), ids=TORN_TAILS)
    def test_replay_then_reopen(self, tmp_path, tail):
        wal, path, durable = self.log_with_tail(tmp_path, tail)
        assert [e.seq for e in wal.iter_durable_events()] == [0, 1, 2]
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.torn_tails_truncated == 1
        assert path.read_bytes() == durable
        assert [e.seq for e in reopened.iter_durable_events()] == [0, 1, 2]
        reopened.close()

    @pytest.mark.parametrize("tail", TORN_TAILS.values(), ids=TORN_TAILS)
    def test_reopen_then_replay(self, tmp_path, tail):
        wal, path, durable = self.log_with_tail(tmp_path, tail)
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.torn_tails_truncated == 1
        assert path.read_bytes() == durable
        assert [e.seq for e in reopened.iter_durable_events()] == [0, 1, 2]
        assert reopened.next_seq() == 3
        reopened.close()

    def test_mistyped_row_at_the_tail_is_refused_in_either_order(
        self, tmp_path
    ):
        row = b'[3, "Enter", 1, "Send", "late", 1, null]\n'
        wal, path, __ = self.log_with_tail(tmp_path, row)
        with pytest.raises(HistoryError, match=f"{path.name} line 4"):
            list(wal.iter_durable_events())
        wal.close()
        with pytest.raises(HistoryError, match=f"{path.name} line 4"):
            make_wal(tmp_path)


class TestLineDecoding:
    """Reopen and replay decode every line as an event row, with the
    decoder every other event boundary uses."""

    @staticmethod
    def rewrite_line(path, number, row):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[number - 1] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")

    def test_mistyped_seq_fails_reopen(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(3):
            wal.record(event(seq))
        wal.close()
        path = wal.segment_paths()[-1]
        self.rewrite_line(path, 2, ["7", "Enter", 1, "Send", 1.0, 1, None])
        with pytest.raises(HistoryError, match=f"{path.name} line 2"):
            make_wal(tmp_path)

    def test_mistyped_fields_fail_replay(self, tmp_path):
        wal = make_wal(tmp_path, segment_bytes=1)  # one event per segment
        wal.open(state(0.0))
        for seq in range(3):
            wal.record(event(seq))
        wal.close()
        sealed = wal.segment_paths()[0]
        self.rewrite_line(sealed, 1, [0, "Enter", "x", "Send", "late", 1, None])
        # Opening reads only the intact active segment; replay reads all.
        reopened = make_wal(tmp_path, segment_bytes=1)
        with pytest.raises(HistoryError, match=f"{sealed.name} line 1"):
            list(reopened.iter_durable_events())

    def test_keyed_line_is_refused_even_at_the_tail(self, tmp_path):
        # The keyed object earlier versions wrote is complete JSON, not a
        # torn write: it is refused, naming the line, never truncated.
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(2):
            wal.record(event(seq))
        wal.flush()
        path = wal.segment_paths()[-1]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                '{"kind": "event", "event": "Enter", "seq": 2, "pid": 1, '
                '"pname": "Send", "time": 2.0, "flag": 1}\n'
            )
        with pytest.raises(HistoryError, match=f"{path.name} line 3"):
            list(wal.iter_durable_events())
        wal.close()
        with pytest.raises(HistoryError, match=f"{path.name} line 3"):
            make_wal(tmp_path)


def set_byte(path, offset, value):
    raw = bytearray(path.read_bytes())
    raw[offset] = value
    path.write_bytes(bytes(raw))


class TestReopen:
    def test_seq_resumes_past_durable_events(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(5):
            wal.record(event(seq))
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.next_seq() == 5

    def test_appends_continue_the_same_log(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        for seq in range(3):
            wal.record(event(seq))
        wal.close()
        reopened = make_wal(tmp_path)
        reopened.open(state(4.0))
        reopened.record(event(3))
        reopened.flush()
        assert [e.seq for e in reopened.iter_durable_events()] == [0, 1, 2, 3]


class TestReplayHooks:
    def test_replaying_context_skips_the_disk(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        before = wal.bytes_written
        with wal.replaying():
            wal.record(event(0))
        assert wal.bytes_written == before
        assert wal.live_events == 1

    def test_restore_event_bumps_counters_without_writing(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.open(state(0.0))
        wal.restore_event(event(7))
        assert wal.total_recorded == 1
        assert wal.next_seq() == 8
        assert wal.bytes_written == 0

    def test_close_is_idempotent(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.close()
        wal.close()
        assert wal.closed
