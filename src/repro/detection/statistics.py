"""Fault frequency statistics (paper Section 2, third purpose).

The paper motivates the taxonomy partly as instrumentation: "it provides
information about the frequency of each fault.  For example, if a
particular kind of fault appears frequently we could use a variety of
methods to reduce the incidence of it."  ``FaultStatistics`` aggregates a
report stream into exactly that information: counts per rule, per
implicated fault class, per monitor, per taxonomy level, and per
confidence (CONFIRMED findings vs DEGRADED ones from lossy checkpoint
windows), with a text rendering for operator consumption.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro._tables import render_table
from repro.detection.engine import ENGINE_TOTALS
from repro.detection.faults import FaultClass, FaultLevel
from repro.detection.reports import Confidence, FaultReport

__all__ = ["FaultStatistics"]


class FaultStatistics:
    """Aggregates fault reports into frequency tables."""

    def __init__(self) -> None:
        self.total_reports = 0
        self.by_rule: Counter[str] = Counter()
        self.by_fault: Counter[FaultClass] = Counter()
        self.by_monitor: Counter[str] = Counter()
        self.by_level: Counter[FaultLevel] = Counter()
        self.by_confidence: Counter[Confidence] = Counter()
        #: Per fault class: how many implications were confirmed vs degraded.
        self.fault_confidence: dict[FaultClass, Counter[Confidence]] = {}
        #: Two-phase pipeline counters of the source engine (when built via
        #: :meth:`from_engine`): every engine-level counter of the engine's
        #: ``COUNTERS`` table, plus the worldstop/evaluate wall-clock
        #: split.  Read via :attr:`counters`.
        self._counters: dict[str, float] = {}
        self._first_at: Optional[float] = None
        self._last_at: Optional[float] = None

    @property
    def counters(self) -> dict[str, float]:
        """Pipeline/durability counters of the source engine (read by
        :meth:`from_engine`; empty for statistics built from raw report
        streams)."""
        return self._counters

    # ---------------------------------------------------------------- intake

    def record(self, report: FaultReport) -> None:
        """Fold one report into the counters.

        A report increments every fault class it implicates — frequencies
        answer "how often was this class suspected", mirroring how an
        operator would triage the stream.
        """
        self.total_reports += 1
        self.by_rule[report.rule_id] += 1
        self.by_monitor[report.monitor] += 1
        self.by_confidence[report.confidence] += 1
        for fault in report.suspected_faults:
            self.by_fault[fault] += 1
            self.by_level[fault.level] += 1
            self.fault_confidence.setdefault(fault, Counter())[
                report.confidence
            ] += 1
        if self._first_at is None or report.detected_at < self._first_at:
            self._first_at = report.detected_at
        if self._last_at is None or report.detected_at > self._last_at:
            self._last_at = report.detected_at

    def record_all(self, reports: Iterable[FaultReport]) -> None:
        for report in reports:
            self.record(report)

    @classmethod
    def from_engine(cls, engine) -> "FaultStatistics":
        """Aggregate a :class:`DetectionEngine`'s reports and counters.

        Besides the report stream this picks up the engine's two-phase
        pipeline counters — the engine-level rows of the same counter
        table its ``metrics()`` exports — and, for a durable source, its
        durability counters, so one object carries both "what was found"
        and "what the finding cost".  Engines, clusters, durable wrappers
        and sessions all expose these attributes.
        """
        stats = cls()
        stats.record_all(engine.reports)
        counters = {name: getattr(engine, name) for name in ENGINE_TOTALS}
        counters["worldstop_seconds"] = engine.worldstop_seconds
        counters["evaluate_seconds"] = engine.evaluate_seconds
        counters.update(getattr(engine, "durability_counters", {}))
        stats._counters = counters
        return stats

    # --------------------------------------------------------------- queries

    def most_frequent_fault(self) -> Optional[FaultClass]:
        """The fault class implicated most often (None when no reports)."""
        if not self.by_fault:
            return None
        return self.by_fault.most_common(1)[0][0]

    def frequency(self, fault: FaultClass) -> int:
        return self.by_fault.get(fault, 0)

    def confirmed(self, fault: FaultClass) -> int:
        """Implications of ``fault`` from complete checkpoint windows."""
        return self.fault_confidence.get(fault, Counter())[
            Confidence.CONFIRMED
        ]

    def degraded(self, fault: FaultClass) -> int:
        """Implications of ``fault`` from lossy (degraded-mode) windows."""
        return self.fault_confidence.get(fault, Counter())[
            Confidence.DEGRADED
        ]

    @property
    def window(self) -> tuple[Optional[float], Optional[float]]:
        """(first, last) report timestamps."""
        return (self._first_at, self._last_at)

    # -------------------------------------------------------------- rendering

    def render(self, top: int = 10) -> str:
        """Multi-table text rendering (rules, fault classes, monitors)."""
        if not self.total_reports:
            return "no fault reports recorded"
        confirmed = self.by_confidence[Confidence.CONFIRMED]
        degraded = self.by_confidence[Confidence.DEGRADED]
        parts = [
            f"{self.total_reports} reports ({confirmed} confirmed, "
            f"{degraded} degraded) between "
            f"t={self._first_at:g} and t={self._last_at:g}"
        ]
        parts.append(
            render_table(
                ["rule", "reports"],
                self.by_rule.most_common(top),
                title="\nby rule",
            )
        )
        parts.append(
            render_table(
                ["fault class", "level", "implicated", "confirmed", "degraded"],
                [
                    (
                        fault.label,
                        fault.level.value,
                        count,
                        self.confirmed(fault),
                        self.degraded(fault),
                    )
                    for fault, count in self.by_fault.most_common(top)
                ],
                title="\nby implicated fault class",
            )
        )
        parts.append(
            render_table(
                ["monitor", "reports"],
                self.by_monitor.most_common(top),
                title="\nby monitor",
            )
        )
        if self._counters:
            counters = self._counters
            parts.append(
                "\nengine: "
                f"{counters['checkpoints_run']:g} checkpoints, "
                f"{counters['atomic_sections']:g} atomic sections, "
                f"{counters['captures_taken']:g} captures, "
                f"{counters['evaluations_run']:g} evaluations; "
                f"world-stop {counters['worldstop_seconds']:.4f}s, "
                f"evaluate {counters['evaluate_seconds']:.4f}s"
            )
            if counters.get("incremental_hits") or counters.get(
                "staged_flushes"
            ):
                parts.append(
                    "hot path: "
                    f"{counters.get('incremental_hits', 0):g} carried windows "
                    f"({counters.get('incremental_fastpaths', 0):g} fast-path), "
                    f"{counters.get('incremental_rebases', 0):g} rebases; "
                    f"{counters.get('staged_events', 0):g} events staged over "
                    f"{counters.get('staged_flushes', 0):g} flushes"
                )
            if "wal_bytes_written" in counters:
                parts.append(
                    "durability: "
                    f"{counters['wal_bytes_written']:g} WAL bytes, "
                    f"{counters['wal_fsyncs']:g} fsyncs, "
                    f"{counters['snapshots_written']:g} snapshots, "
                    f"{counters['recoveries']:g} recoveries, "
                    f"{counters['reports_deduplicated']:g} deduplicated"
                )
        return "\n".join(parts)

    def __repr__(self) -> str:
        return (
            f"FaultStatistics(reports={self.total_reports}, "
            f"rules={len(self.by_rule)}, faults={len(self.by_fault)})"
        )
