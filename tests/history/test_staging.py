"""Per-process staging buffer: batched ``record()`` in the in-memory sinks.

Staging makes ``record()`` a cheap local append, flushed once per atomic
section (``cut()``) or whenever the batch fills.  The contract tested
here: staging is *observationally transparent* — every inspection surface
flushes first, listeners still fire synchronously per event, drop
accounting stays exact — and the write-ahead log never stages.
"""

from repro.history import (
    BoundedHistory,
    EventSink,
    HistoryDatabase,
    WriteAheadLog,
)
from repro.history.database import DEFAULT_STAGING
from repro.history.events import enter_event
from repro.history.states import SchedulingState


def event(seq, pid=1, t=None):
    return enter_event(
        seq, pid, "Send", t if t is not None else float(seq), flag=1
    )


def state(t):
    return SchedulingState(time=t, entry_queue=(), cond_queues={}, running=())


class TestSinkStaging:
    def test_unstaged_sink_counts_no_flushes(self, tmp_path):
        sink = WriteAheadLog(tmp_path / "wal", fsync="never")
        sink.open(state(0.0))
        for seq in range(5):
            sink.record(event(seq))
        assert sink.staged_events == 0
        assert sink.staged_flushes == 0
        assert sink.live_events == 5

    def test_batch_flushes_at_limit(self):
        sink = HistoryDatabase()
        sink.open(state(0.0))
        for seq in range(2 * DEFAULT_STAGING + 1):
            sink.record(event(seq))
        # Two full batches flushed, one event still staged.
        assert sink.staged_flushes == 2
        assert sink.staged_events == 2 * DEFAULT_STAGING
        assert sink.total_recorded == 2 * DEFAULT_STAGING + 1

    def test_cut_flushes_the_tail(self):
        sink = HistoryDatabase()
        sink.open(state(0.0))
        for seq in range(4):
            sink.record(event(seq))
        segment = sink.cut(state(5.0))
        assert len(segment) == 4
        assert sink.staged_flushes == 1
        assert sink.staged_events == 4

    def test_inspection_properties_flush(self):
        sink = HistoryDatabase()
        sink.open(state(0.0))
        for seq in range(3):
            sink.record(event(seq))
        # Reading pending_events must not miss staged appends.
        assert [e.seq for e in sink.pending_events] == [0, 1, 2]
        assert sink.live_events == 3

    def test_listeners_fire_synchronously_despite_staging(self):
        sink = HistoryDatabase()
        sink.open(state(0.0))
        seen = []
        sink.subscribe(lambda e: seen.append(e.seq))
        for seq in range(3):
            sink.record(event(seq))
        assert seen == [0, 1, 2]

    def test_database_stages_by_default(self):
        sink = HistoryDatabase()
        assert sink._staging_limit == DEFAULT_STAGING

    def test_flush_staged_reports_batch_size(self):
        sink = HistoryDatabase()
        sink.open(state(0.0))
        for seq in range(4):
            sink.record(event(seq))
        assert sink.flush_staged() == 4
        assert sink.flush_staged() == 0


class TestBoundedStaging:
    def test_default_staging_bounded_by_capacity(self):
        assert BoundedHistory(4)._staging_limit == 4
        assert BoundedHistory(10_000)._staging_limit == DEFAULT_STAGING

    def test_drop_accounting_exact_across_flushes(self):
        # Batches of 64 into a ring of 70: flushes at 64 and 128 and the
        # cut's tail of 22 straddle the capacity unevenly.
        sink = BoundedHistory(70)
        sink.open(state(0.0))
        for seq in range(150):
            sink.record(event(seq))
        segment = sink.cut(state(151.0))
        # Capacity 70: only the last 70 events survive; 80 dropped.
        assert [e.seq for e in segment.events] == list(range(80, 150))
        assert segment.dropped == 80
        assert not segment.complete

    def test_dropped_events_property_flushes(self):
        sink = BoundedHistory(2)
        sink.open(state(0.0))
        for seq in range(5):
            sink.record(event(seq))
        # The staged tail must be folded in before eviction is counted.
        assert sink.dropped_events == 3


class TestWalStaging:
    def test_unstaged_is_the_wal_default(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        assert wal._staging_limit == 1
