"""Tests for the fault-frequency statistics aggregator."""

import pytest

from repro.detection import FaultClass, FaultLevel, FaultStatistics, STRule
from repro.detection.reports import FaultReport


def report(rule, monitor="m", at=1.0, pids=()):
    return FaultReport(
        rule=rule, message="x", monitor=monitor, detected_at=at, pids=pids
    )


class TestIntake:
    def test_empty(self):
        stats = FaultStatistics()
        assert stats.total_reports == 0
        assert stats.most_frequent_fault() is None
        assert stats.window == (None, None)
        assert stats.render() == "no fault reports recorded"

    def test_counts_by_rule_and_monitor(self):
        stats = FaultStatistics()
        stats.record(report(STRule.ONE_INSIDE, monitor="buffer"))
        stats.record(report(STRule.ONE_INSIDE, monitor="buffer"))
        stats.record(report(STRule.TIO_EXCEEDED, monitor="allocator"))
        assert stats.total_reports == 3
        assert stats.by_rule["ST-3a"] == 2
        assert stats.by_rule["ST-6"] == 1
        assert stats.by_monitor["buffer"] == 2
        assert stats.by_monitor["allocator"] == 1

    def test_fault_class_implication_counting(self):
        stats = FaultStatistics()
        stats.record(report(STRule.NO_DUPLICATE_REQUEST))
        assert stats.frequency(FaultClass.REQUEST_WHILE_HOLDING) == 1
        assert stats.most_frequent_fault() is FaultClass.REQUEST_WHILE_HOLDING
        assert stats.by_level[FaultLevel.USER_PROCESS] == 1

    def test_window_tracks_extremes(self):
        stats = FaultStatistics()
        stats.record(report(STRule.ONE_INSIDE, at=5.0))
        stats.record(report(STRule.ONE_INSIDE, at=2.0))
        stats.record(report(STRule.ONE_INSIDE, at=9.0))
        assert stats.window == (2.0, 9.0)


class TestFromDetectors:
    def test_from_detector_run(self, kernel):
        from repro.apps import SingleResourceAllocator
        from repro.detection import DetectionSession
        from repro.history import HistoryDatabase

        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(kernel, monitors=[allocator])

        def buggy():
            yield from allocator.release()

        kernel.spawn(buggy())
        kernel.run(until=1.0)
        stats = FaultStatistics.from_engine(session)
        assert stats.total_reports >= 1
        assert stats.frequency(FaultClass.RELEASE_BEFORE_REQUEST) >= 1

    def test_render_contains_tables(self):
        stats = FaultStatistics()
        stats.record(report(STRule.ONE_INSIDE, monitor="buffer", at=3.0))
        text = stats.render()
        assert "by rule" in text
        assert "by implicated fault class" in text
        assert "buffer" in text
        assert "ST-3a" in text


class TestConfidenceSplit:
    def degraded_report(self, rule, **kwargs):
        import dataclasses

        from repro.detection import Confidence

        return dataclasses.replace(
            report(rule, **kwargs), confidence=Confidence.DEGRADED
        )

    def test_by_confidence_counter(self):
        from repro.detection import Confidence

        stats = FaultStatistics()
        stats.record(report(STRule.ONE_INSIDE))
        stats.record(report(STRule.TIO_EXCEEDED))
        stats.record(self.degraded_report(STRule.TMAX_EXCEEDED))
        assert stats.by_confidence[Confidence.CONFIRMED] == 2
        assert stats.by_confidence[Confidence.DEGRADED] == 1

    def test_per_fault_class_split(self):
        stats = FaultStatistics()
        stats.record(report(STRule.TMAX_EXCEEDED))
        stats.record(self.degraded_report(STRule.TMAX_EXCEEDED))
        stats.record(self.degraded_report(STRule.TMAX_EXCEEDED))
        assert stats.confirmed(FaultClass.TERMINATED_INSIDE) == 1
        assert stats.degraded(FaultClass.TERMINATED_INSIDE) == 2
        # A class never reported splits to zero on both sides.
        assert stats.confirmed(FaultClass.RELEASE_BEFORE_REQUEST) == 0
        assert stats.degraded(FaultClass.RELEASE_BEFORE_REQUEST) == 0

    def test_render_header_shows_split(self):
        stats = FaultStatistics()
        stats.record(report(STRule.ONE_INSIDE))
        stats.record(self.degraded_report(STRule.TMAX_EXCEEDED))
        rendered = stats.render()
        assert "(1 confirmed, 1 degraded)" in rendered
        assert "confirmed" in rendered.splitlines()[2] or "confirmed" in rendered

    def test_render_table_has_confidence_columns(self):
        stats = FaultStatistics()
        stats.record(report(STRule.TMAX_EXCEEDED))
        stats.record(self.degraded_report(STRule.TMAX_EXCEEDED))
        rendered = stats.render()
        header_line = next(
            line
            for line in rendered.splitlines()
            if "fault class" in line and "level" in line
        )
        assert "confirmed" in header_line
        assert "degraded" in header_line
