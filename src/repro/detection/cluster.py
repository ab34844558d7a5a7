"""Sharded detection: many engines, staggered world-stops, one surface.

One :class:`~repro.detection.engine.DetectionEngine` already amortises the
paper's per-detector suspend-the-world cost into a single two-phase
checkpoint per interval — but the whole fleet still funnels through one
engine object with one schedule, so at large fleet sizes every phase-1
sweep stops the world for O(fleet) snapshot+cut work at once.
:class:`DetectionCluster` is the next scaling lever named in ROADMAP:
partition the registered monitors across N engine *shards* so that

* each phase-1 atomic section only sweeps its own shard's monitors
  (world-stop per section shrinks from O(fleet) to O(fleet / N)),
* shard capture schedules are **staggered** — shard ``k`` fires at offset
  ``interval * k / N`` within the checking period, recomputed over the
  non-empty shards whenever a monitor registers or unregisters, so
  phase-1 sections never pile onto the same instant,
* each shard runs capture, evaluation and commit on its own pacing
  process, as the paper's checking routine does.  On the thread kernel
  every pacing process is its own OS thread, so one shard's phase 2
  overlaps another shard's capture while each shard's checker state
  keeps a single writer.

Monitors are placed round-robin in registration order, unless a
registration pins its shard explicitly (``register(..., shard=k)``).

The cluster exposes the same reporting surface as a single engine
(``reports``, ``reports_by_monitor``, ``implicated_faults``, ``clean``,
``confirmed_clean`` …) by merging the shard streams into one
deterministic order — virtual detection time, then shard id, then
cluster registration order.  Each :class:`ClusterShard` owns its engine,
its :class:`~repro.detection.supervision.CheckpointSupervisor` and, when
the cluster is durable, its durability: a
:class:`~repro.detection.durability.DurableEngine` under
``root/shard-<k>`` (WALs, snapshots, report journal), committed after
every evaluation; :meth:`DetectionCluster.recover` restores every shard
and re-merges their report journals.
:class:`~repro.detection.session.DetectionSession` is this class plus
up-front registration, ``start()`` and ``statistics()``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.detection.config import DetectorConfig
from repro.detection.durability import DurableEngine, RecoverySummary
from repro.observability.registry import Histogram, MetricsRegistry
from repro.detection.engine import (
    ENGINE_TOTALS,
    DetectionEngine,
    MonitorLike,
    RegisteredMonitor,
    _unwrap,
    _require_kernel,
)
from repro.detection.reports import Confidence, FaultReport
from repro.detection.supervision import (
    CheckpointSupervisor,
    QuarantineRecord,
    SupervisorEvent,
)
from repro.history.sink import merge_event_streams
from repro.kernel.syscalls import Delay, Syscall

__all__ = [
    "ClusterShard",
    "DetectionCluster",
    "shard_process",
]


#: Attributes a cluster sums over its shards' engines.
_SHARD_TOTALS = frozenset(ENGINE_TOTALS) | {
    "worldstop_seconds",
    "evaluate_seconds",
    "checking_seconds",
}


# ------------------------------------------------------------------ shards


class ClusterShard:
    """One shard: its engine, supervisor, durability and schedule.

    Its :class:`~repro.detection.supervision.CheckpointSupervisor`
    supervises :meth:`checkpoint`: capture, evaluate, then commit to
    ``durable``.
    """

    def __init__(
        self,
        index: int,
        engine: DetectionEngine,
        durable_root: Optional[Path],
        *,
        fsync: str,
    ) -> None:
        self.index = index
        #: The shard's engine (phase split, counters, entries).
        self.engine = engine
        #: Stagger offset of this shard's capture schedule within the
        #: checking interval (maintained by the cluster's rebalance).
        self.offset = 0.0
        self.supervisor = CheckpointSupervisor(
            self.checkpoint, engine.kernel, engine.config
        )
        #: The shard's WALs, snapshots and report journal (None unless
        #: the cluster is durable); its snapshots persist the counts of
        #: the supervisor above, which paces the shard.
        self.durable: Optional[DurableEngine] = None
        if durable_root is not None:
            self.durable = DurableEngine(
                engine, self.supervisor, durable_root, fsync=fsync
            )

    def register(
        self, monitor, config: Optional[DetectorConfig], label: str
    ) -> RegisteredMonitor:
        """Register ``monitor`` under its cluster-unique ``label``, on a
        fresh WAL when the shard is durable."""
        if self.durable is not None:
            self.durable.attach(monitor, label)
        return self.engine.register(monitor, config, label=label)

    def unregister(self, entry: RegisteredMonitor) -> None:
        """Drop ``entry`` from the engine; a durable shard then journals
        its last reports, closes its WAL and snapshots the rest."""
        self.engine.unregister(entry)
        if self.durable is not None:
            self.durable.detach(entry)

    def checkpoint(self) -> list[FaultReport]:
        """One shard checkpoint: the engine's capture and evaluation, then
        the durable journal and snapshot.

        Returns the new reports — for a durable shard, only those its
        journal had not delivered before.  A commit that raises fails the
        supervised attempt, so the round is retried.
        """
        found = self.engine.checkpoint()
        return found if self.durable is None else self.durable.commit()

    def __repr__(self) -> str:
        return (
            f"ClusterShard({self.index}, monitors={len(self.engine.entries)}, "
            f"offset={self.offset:g}, checkpoints={self.engine.checkpoints_run}, "
            f"durable={self.durable is not None})"
        )


# ----------------------------------------------------------------- cluster


class DetectionCluster:
    """N staggered :class:`DetectionEngine` shards behind one engine surface.

    Usually built as a :class:`~repro.detection.session.DetectionSession`.

    Parameters
    ----------
    kernel:
        The substrate every registered monitor (and every shard's atomic
        capture section) lives on.
    config:
        Default :class:`DetectorConfig`.
    shards:
        Number of engine shards (default 1).  Registrations are placed
        round-robin across them unless pinned with ``shard=``.
    durable_root:
        When set, each shard keeps its durability — a
        :class:`~repro.detection.durability.DurableEngine` rooted at
        ``durable_root/shard-<k>``: per-shard WALs, snapshots and report
        journal, restored together by :meth:`recover`.
    fsync:
        WAL fsync policy of a durable cluster (``"always"``,
        ``"interval"`` or ``"never"``).
    """

    def __init__(
        self,
        kernel,
        config: Optional[DetectorConfig] = None,
        *,
        shards: int = 1,
        durable_root: Optional[Union[str, Path]] = None,
        fsync: str = "interval",
    ) -> None:
        self.kernel = kernel
        self.config = config or DetectorConfig()
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.durable_root = Path(durable_root) if durable_root else None
        self._shards = [
            ClusterShard(
                index,
                DetectionEngine(kernel, self.config),
                None
                if self.durable_root is None
                else self.durable_root / f"shard-{index}",
                fsync=fsync,
            )
            for index in range(shards)
        ]
        #: Cluster-wide registration order: ``(entry, shard index)``.
        self._order: list[tuple[RegisteredMonitor, int]] = []
        self._labels: set[str] = set()
        #: Round-robin cursor; advances only on unpinned registrations.
        self._next_shard = 0
        self._stopped = False

    # ------------------------------------------------------------------ shape

    @property
    def shards(self) -> tuple[ClusterShard, ...]:
        return tuple(self._shards)

    @property
    def durable(self) -> bool:
        return self.durable_root is not None

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def engines(self) -> tuple[DetectionEngine, ...]:
        return tuple(shard.engine for shard in self._shards)

    def shard_of(self, target: Union[MonitorLike, RegisteredMonitor, str]) -> int:
        """The shard index a registered monitor was placed on."""
        entry = self._find(target)
        for candidate, index in self._order:
            if candidate is entry:
                return index
        raise KeyError(f"{target!r} is not registered with this cluster")

    # ---------------------------------------------------------- registration

    def _unique_label(self, base: str) -> str:
        unique, suffix = base, 2
        while unique in self._labels:
            unique = f"{base}#{suffix}"
            suffix += 1
        return unique

    def register(
        self,
        target: MonitorLike,
        config: Optional[DetectorConfig] = None,
        *,
        label: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> RegisteredMonitor:
        """Place a monitor on a shard and register it there.

        ``label`` keys the monitor in :meth:`reports_by_monitor`
        (cluster-wide unique, ``#2``-suffixed like the engine's).
        Placement is round-robin over unpinned registrations; ``shard``
        pins it explicitly and leaves the round-robin cursor where it
        was.  Registration rebalances the stagger offsets over the
        non-empty shards.  A rejected registration changes nothing: the
        monitor keeps its sink and the cursor stays put.
        """
        monitor = _unwrap(target)
        _require_kernel(monitor, self.kernel)
        index = self._next_shard % self.shard_count if shard is None else shard
        if not 0 <= index < self.shard_count:
            raise ValueError(
                f"shard index {index} out of range for "
                f"{self.shard_count} shard(s)"
            )
        entry = self._shards[index].register(
            monitor, config, self._unique_label(label or monitor.name)
        )
        if shard is None:
            self._next_shard += 1
        self._labels.add(entry.label)
        self._order.append((entry, index))
        self._rebalance()
        return entry

    def _find(
        self, target: Union[MonitorLike, RegisteredMonitor, str]
    ) -> RegisteredMonitor:
        if isinstance(target, RegisteredMonitor):
            return target
        if isinstance(target, str):
            for entry, __ in self._order:
                if entry.label == target:
                    return entry
            raise KeyError(f"label {target!r} is not registered")
        monitor = _unwrap(target)
        for entry, __ in self._order:
            if entry.monitor is monitor:
                return entry
        raise KeyError(f"monitor {monitor.name!r} is not registered")

    def unregister(
        self, target: Union[MonitorLike, RegisteredMonitor, str]
    ) -> None:
        """Drop a monitor from its shard and rebalance the stagger.

        Goes through :meth:`ClusterShard.unregister`: the engine closes
        out the monitor's quarantine record when its breaker has history,
        and a durable shard journals the monitor's last reports, closes
        its WAL and snapshots the remaining fleet.
        """
        entry = self._find(target)
        index = self.shard_of(entry)
        self._shards[index].unregister(entry)
        self._labels.discard(entry.label)
        self._order = [
            (candidate, shard_index)
            for candidate, shard_index in self._order
            if candidate is not entry
        ]
        self._rebalance()

    @property
    def entries(self) -> tuple[RegisteredMonitor, ...]:
        """Registered monitors in cluster registration order."""
        return tuple(entry for entry, __ in self._order)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(entry.label for entry, __ in self._order)

    # --------------------------------------------------------------- stagger

    def _rebalance(self) -> None:
        """Spread offsets ``interval * k / N`` over the non-empty shards.

        Empty shards pace nothing, so the stagger divides the interval
        among the shards that actually capture — registering the first
        monitor on a previously empty shard re-spaces everyone.
        """
        active = [shard for shard in self._shards if shard.engine.entries]
        for shard in self._shards:
            shard.offset = 0.0
        for position, shard in enumerate(active):
            shard.offset = self.config.interval * position / len(active)

    @property
    def offsets(self) -> tuple[float, ...]:
        """Current stagger offsets, indexed by shard."""
        return tuple(shard.offset for shard in self._shards)

    # -------------------------------------------------------------- checking

    def checkpoint(self) -> list[FaultReport]:
        """Run one checkpoint on every shard, in shard order.

        The manual (non-paced) surface, mirroring
        :meth:`DetectionEngine.checkpoint`.
        """
        found: list[FaultReport] = []
        for shard in self._shards:
            found.extend(shard.checkpoint())
        return found

    def spawn_processes(self, *, rounds: Optional[int] = None) -> list:
        """Spawn one staggered pacing process per shard on the kernel."""
        return [
            self.kernel.spawn(
                shard_process(self, shard.index, rounds=rounds),
                f"detection-shard-{shard.index}",
            )
            for shard in self._shards
        ]

    # ------------------------------------------------------------- lifecycle

    def stop(self) -> None:
        """Stop every shard and flush its WALs.

        Each pacing process leaves at its next wake.  On the thread
        kernel a round may still be running when this returns: to read
        final counts there, join the pacing processes first
        (``kernel.run()``).
        """
        self._stopped = True
        for shard in self._shards:
            shard.engine.stop()
            if shard.durable is not None:
                shard.durable.flush()

    @property
    def stopped(self) -> bool:
        return self._stopped

    # ------------------------------------------------------------ durability

    def _durables(self) -> list[DurableEngine]:
        return [s.durable for s in self._shards if s.durable is not None]

    def baseline(self) -> None:
        """Persist each durable shard's initial snapshot (post-assembly)."""
        for durable in self._durables():
            durable.baseline()

    def recover(self) -> list[RecoverySummary]:
        """Restore every durable shard after a restart, in shard order.

        Rebuild the fleet first, exactly as before the crash (same
        monitors, same labels, in the same order or pinned with
        ``register(..., shard=...)``, so each lands on its old shard), then
        call this once.  The per-shard journals re-merge through
        :attr:`delivered_reports`.
        """
        return [durable.recover() for durable in self._durables()]

    def close(self) -> None:
        """Close durable handles (crash simulators)."""
        for durable in self._durables():
            durable.close()

    @property
    def durability_counters(self) -> dict[str, int]:
        """Summed durability accounting across durable shards."""
        totals: dict[str, int] = {}
        for durable in self._durables():
            for key, value in durable.durability_counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------- reporting

    def _merge(
        self, streams: Sequence[tuple[int, int, Sequence[FaultReport]]]
    ) -> list[FaultReport]:
        """Deterministic fan-in: (virtual time, shard id, registration order)."""
        keyed = [
            ((report.detected_at, shard_index, order, position), report)
            for shard_index, order, stream in streams
            for position, report in enumerate(stream)
        ]
        keyed.sort(key=lambda pair: pair[0])
        return [report for __, report in keyed]

    @property
    def reports(self) -> list[FaultReport]:
        """All shards' reports, merged into one deterministic order."""
        return self._merge(
            [
                (shard_index, order, entry.reports)
                for order, (entry, shard_index) in enumerate(self._order)
            ]
        )

    @property
    def delivered_reports(self) -> list[FaultReport]:
        """The durable delivered stream, re-merged across shard journals.

        Falls back to :attr:`reports` for a non-durable cluster.  After
        :meth:`recover`, this is the exactly-once stream the journals
        back; in-memory ``reports`` only carries what the current
        incarnation derived.
        """
        if not self.durable:
            return self.reports
        keyed = [
            ((report.detected_at, index, position), report)
            for index, durable in enumerate(self._durables())
            for position, report in enumerate(durable.reports)
        ]
        keyed.sort(key=lambda pair: pair[0])
        return [report for __, report in keyed]

    def reports_by_monitor(self) -> dict[str, list[FaultReport]]:
        """Per-monitor streams keyed by label, cluster registration order."""
        return {entry.label: list(entry.reports) for entry, __ in self._order}

    def reports_for_rule(self, rule) -> list[FaultReport]:
        return [report for report in self.reports if report.rule is rule]

    def implicated_faults(self) -> frozenset:
        suspects: set = set()
        for entry, __ in self._order:
            for report in entry.reports:
                suspects.update(report.suspected_faults)
        return frozenset(suspects)

    def reports_by_confidence(self) -> dict[Confidence, list[FaultReport]]:
        split: dict[Confidence, list[FaultReport]] = {
            confidence: [] for confidence in Confidence
        }
        for report in self.reports:
            split[report.confidence].append(report)
        return split

    @property
    def clean(self) -> bool:
        return all(not entry.reports for entry, __ in self._order)

    @property
    def confirmed_clean(self) -> bool:
        return all(
            report.confidence is not Confidence.CONFIRMED
            for report in self.reports
        )

    @property
    def merged_events(self):
        """Fan-in of every registered sink's open window, one timeline."""
        return merge_event_streams(
            [entry.history.pending_events for entry, __ in self._order]
        )

    # ------------------------------------------------------------ resilience

    @property
    def quarantined(self) -> tuple[RegisteredMonitor, ...]:
        return tuple(
            entry for entry, __ in self._order if entry.quarantined
        )

    def quarantine_report(self) -> list[QuarantineRecord]:
        """Quarantine records across shards (live and retired), shard order."""
        records: list[QuarantineRecord] = []
        for shard in self._shards:
            records.extend(shard.engine.quarantine_report())
        return records

    def supervisor_events(self) -> list[tuple[int, SupervisorEvent]]:
        """Every shard supervisor's audit log, tagged with its shard id."""
        return [
            (shard.index, event)
            for shard in self._shards
            for event in shard.supervisor.events
        ]

    # -------------------------------------------------------------- counters

    def __getattr__(self, name: str):
        # Engine counters and phase times, read on the cluster, are totals
        # over its shards.
        if name in _SHARD_TOTALS:
            return sum(getattr(shard.engine, name) for shard in self._shards)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def worldstop_max(self) -> float:
        """Longest single phase-1 section across all shards — the cluster's
        worst per-checkpoint stall, the figure the sharding gate bounds."""
        return max(
            (shard.engine.worldstop_max for shard in self._shards),
            default=0.0,
        )

    def worldstop_percentile(self, q: float) -> float:
        """Percentile of phase-1 stalls across all shards, estimated from
        the merged shard histograms and capped at :attr:`worldstop_max`."""
        merged = Histogram()
        for shard in self._shards:
            merged.merge(shard.engine.worldstop_latency)
        return min(merged.percentile(q), self.worldstop_max)

    def metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Snapshot the whole cluster into one registry, shard-labelled.

        Each shard's engine, durability (when durable) and supervisor
        export their own families under a ``shard`` label (sum across
        shards to recover the cluster totals).
        """
        registry = MetricsRegistry() if registry is None else registry
        for shard in self._shards:
            labels = {"shard": shard.index}
            shard.engine.metrics(registry, labels=labels)
            if shard.durable is not None:
                shard.durable.metrics(registry, labels=labels)
            shard.supervisor.metrics(registry, labels=labels)
        return registry

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards={self.shard_count}, "
            f"monitors={len(self._order)}, "
            f"checkpoints={self.checkpoints_run}, "
            f"worldstop_max={self.worldstop_max:.6f}, "
            f"durable={self.durable})"
        )


# ------------------------------------------------------------------ pacing


def shard_process(
    cluster: DetectionCluster,
    index: int,
    *,
    rounds: Optional[int] = None,
) -> Iterator[Syscall]:
    """Kernel process pacing one shard on its staggered schedule.

    Every round it sleeps to the shard's next slot — ``offset + k *
    interval`` for the smallest ``k`` strictly in the future, re-reading
    the offset each round so a rebalance (register/unregister) takes
    effect at the next wake — then runs one shard checkpoint through the
    shard's
    :meth:`~repro.detection.supervision.CheckpointSupervisor.run_round`
    (retry/backoff and the stall watchdog).
    """
    shard = cluster.shards[index]
    interval = cluster.config.interval
    remaining = rounds
    while remaining is None or remaining > 0:
        now = cluster.kernel.now()
        step = math.floor((now - shard.offset) / interval + 1e-9) + 1
        target = shard.offset + step * interval
        yield Delay(max(0.0, target - now))
        if cluster.stopped or shard.engine.stopped:
            return
        yield from shard.supervisor.run_round()
        if remaining is not None:
            remaining -= 1
