"""Fault reports — the checker's output stream.

A detected violation is data, not an exception: the faulty execution has
already happened, and the paper's construct *reports* it (Section 3.3:
"report an error").  Reports carry the violated rule, the implicated fault
classes, the processes involved and the checking window, so that the
robustness experiment can score detection coverage per fault class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.detection.faults import FaultClass
from repro.detection.rules import SUSPECTS, FDRule, STRule
from repro.errors import RecoveryError
from repro.ids import Pid

__all__ = [
    "Confidence",
    "FaultReport",
    "rule_from_id",
    "report_to_dict",
    "report_from_dict",
]

Rule = Union[FDRule, STRule]


class Confidence(enum.Enum):
    """How much the checking window backs the report.

    ``CONFIRMED`` — the window was complete: every event since the last
    checkpoint was available to the checker, so the violation is fully
    witnessed.  ``DEGRADED`` — the window was lossy (the sink dropped
    events, see :class:`~repro.history.sink.Segment.dropped`): only
    drop-tolerant rules were evaluated and their findings are advisory.
    Degraded reports must never trigger destructive recovery.
    """

    CONFIRMED = "confirmed"
    DEGRADED = "degraded"


@dataclass(frozen=True)
class FaultReport:
    """One detected concurrency-control rule violation."""

    #: The violated rule (an ST-Rule for on-line checks, FD-Rule off-line).
    rule: Rule
    #: Human-readable description of what was observed.
    message: str
    #: Monitor in which the violation was observed.
    monitor: str
    #: Time at which the checker flagged the violation.
    detected_at: float
    #: Processes implicated (possibly empty when not attributable).
    pids: tuple[Pid, ...] = ()
    #: Sequence number of the event that triggered the violation, when the
    #: check was event-triggered (None for checkpoint-comparison checks).
    event_seq: Optional[int] = None
    #: Start of the checking window in which the violation was found.
    window_start: Optional[float] = None
    #: Whether the checking window fully backs the finding (CONFIRMED) or
    #: the sink dropped events inside it (DEGRADED, advisory only).
    confidence: Confidence = Confidence.CONFIRMED

    @property
    def degraded(self) -> bool:
        """True when this report came from a lossy checking window."""
        return self.confidence is Confidence.DEGRADED

    @property
    def suspected_faults(self) -> tuple[FaultClass, ...]:
        """Fault classes whose occurrence this violation implicates."""
        return SUSPECTS.get(self.rule, ())

    @property
    def rule_id(self) -> str:
        return self.rule.value

    def implicates(self, fault: FaultClass) -> bool:
        return fault in self.suspected_faults

    def render(self) -> str:
        """One-line rendering for logs and example output."""
        pids = ",".join(f"P{p}" for p in self.pids) or "-"
        tag = " (degraded)" if self.degraded else ""
        return (
            f"[{self.rule_id}]{tag} t={self.detected_at:g} "
            f"monitor={self.monitor} pids={pids}: {self.message}"
        )

    def __str__(self) -> str:
        return self.render()


# ------------------------------------------------------------------- codec

# The canonical JSON codec for reports.  Shared by the report journal
# (exactly-once delivery across restarts, :mod:`repro.detection.durability`)
# and the detection service's journal
# (:class:`repro.service.server.ServiceJournal`).  Round trips are exact:
# ``report_from_dict(report_to_dict(r)) == r`` — floats survive JSON
# bit-for-bit via repr-based encoding.


def rule_from_id(value: str) -> Rule:
    """Resolve a ``rule_id`` string back to its ST-/FD-Rule member."""
    for enum_type in (STRule, FDRule):
        try:
            return enum_type(value)
        except ValueError:
            continue
    raise RecoveryError(f"unknown rule id {value!r} in serialized report")


def report_to_dict(report: FaultReport) -> dict:
    """One fault report as a JSON-compatible record."""
    return {
        "kind": "report",
        "rule": report.rule_id,
        "message": report.message,
        "monitor": report.monitor,
        "detected_at": report.detected_at,
        "pids": list(report.pids),
        "event_seq": report.event_seq,
        "window_start": report.window_start,
        "confidence": report.confidence.value,
    }


def report_from_dict(record: dict) -> FaultReport:
    if record.get("kind") != "report":
        raise RecoveryError(f"not a report record: {record!r}")
    try:
        return FaultReport(
            rule=rule_from_id(record["rule"]),
            message=record["message"],
            monitor=record["monitor"],
            detected_at=record["detected_at"],
            pids=tuple(record["pids"]),
            event_seq=record["event_seq"],
            window_start=record["window_start"],
            confidence=Confidence(record["confidence"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(f"malformed report record: {exc}") from exc
