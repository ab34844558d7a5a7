"""Run-time concurrency-control fault detection (paper Sections 2.2–3.3).

Contents:

* :mod:`repro.detection.faults` — the taxonomy: all 21 concurrency-control
  fault classes at the implementation / monitor-procedure / user-process
  levels.
* :mod:`repro.detection.rules` — identifiers for FD-Rules 1–7 (full-trace
  predicates, Section 3.2) and ST-Rules 1–8 (state-transition rules,
  Section 3.3.2), with the mapping from each rule to the fault classes its
  violation implies.
* :mod:`repro.detection.replay` — the checking-list replay machine
  (Enter-0-List, Wait-Cond-Lists, Running-List, Resource-No of
  Section 3.3.1) shared by the window checkers and the offline checker.
* :mod:`repro.detection.algorithm1/2/3` — the paper's three detection
  algorithms, operating on one checkpoint window each.
* :mod:`repro.detection.fd_rules` — the offline FD-rule checker over a
  complete retained trace (ground truth for the ablations and property
  tests).
* :mod:`repro.detection.engine` — the shared
  :class:`~repro.detection.engine.DetectionEngine`: many monitors, one
  batched checkpoint per interval inside a single atomic section, with
  per-monitor report streams and engine-level aggregation.
* :mod:`repro.detection.supervision` — the detector's own fault tolerance:
  per-monitor :class:`~repro.detection.supervision.CircuitBreaker`
  quarantine, the :class:`~repro.detection.supervision.CheckpointSupervisor`
  (retry with backoff and a stall watchdog around one checking round,
  snapshot/restore), and
  :func:`~repro.detection.supervision.supervisor_process`, which paces
  a supervised round every interval.
* :mod:`repro.detection.durability` — crash durability: the
  :class:`~repro.detection.durability.DurableEngine` that is one shard's
  durability — WAL-backed histories, atomic state snapshots and an
  exactly-once report journal, with
  :meth:`~repro.detection.durability.DurableEngine.recover` rebuilding a
  restarted shard to the crashed one's fault set.
* :mod:`repro.detection.cluster` — horizontal scale-out: the
  :class:`~repro.detection.cluster.DetectionCluster` partitioning the
  fleet round-robin across N shards (each an engine, a supervisor and,
  when durable, a ``DurableEngine``) with staggered capture schedules,
  each shard checked on its own pacing process.
* :mod:`repro.detection.session` — the one public front door:
  :class:`~repro.detection.session.DetectionSession`, a cluster plus
  up-front registration, ``start()`` and ``statistics()``.
"""

from repro.detection.cluster import DetectionCluster, shard_process

from repro.detection.algorithm1 import check_general_concurrency_control
from repro.detection.algorithm2 import ResourceStateChecker
from repro.detection.algorithm3 import CallingOrderChecker
from repro.detection.config import DetectorConfig
from repro.detection.durability import (
    DurableEngine,
    RecoverySummary,
    ReportJournal,
    SnapshotStore,
    report_from_dict,
    report_key,
    report_to_dict,
)
from repro.detection.engine import DetectionEngine, RegisteredMonitor
from repro.detection.faults import FaultClass, FaultLevel
from repro.detection.fd_rules import check_full_trace
from repro.detection.replay import ReplayMachine
from repro.detection.reports import Confidence, FaultReport
from repro.detection.rules import DROP_TOLERANT, FDRule, STRule, is_drop_tolerant
from repro.detection.session import DetectionSession
from repro.detection.statistics import FaultStatistics
from repro.detection.supervision import (
    BreakerState,
    CheckpointSupervisor,
    CircuitBreaker,
    QuarantineRecord,
    SupervisorEvent,
    supervisor_process,
)
from repro.detection.waitfor import (
    DeadlockDetector,
    ResourceWaitEdge,
    deadlock_process,
)

__all__ = [
    "FaultClass",
    "FaultLevel",
    "FDRule",
    "STRule",
    "DROP_TOLERANT",
    "is_drop_tolerant",
    "Confidence",
    "FaultReport",
    "ReplayMachine",
    "check_general_concurrency_control",
    "ResourceStateChecker",
    "CallingOrderChecker",
    "check_full_trace",
    "DetectorConfig",
    "DetectionEngine",
    "RegisteredMonitor",
    "DetectionCluster",
    "DetectionSession",
    "shard_process",
    "FaultStatistics",
    "DeadlockDetector",
    "ResourceWaitEdge",
    "deadlock_process",
    "BreakerState",
    "CircuitBreaker",
    "QuarantineRecord",
    "SupervisorEvent",
    "CheckpointSupervisor",
    "supervisor_process",
    "DurableEngine",
    "RecoverySummary",
    "ReportJournal",
    "SnapshotStore",
    "report_key",
    "report_to_dict",
    "report_from_dict",
]
