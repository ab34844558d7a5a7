"""One constructor for the whole detection stack: :class:`DetectionSession`.

Assembling the stack by hand takes several steps — a
``DetectionEngine`` with a hand-spawned ``engine_process``, a
``DurableEngine`` wrapper that must be ``baseline()``-d, a
``CheckpointSupervisor`` for ``supervisor_process``.  A session is the
one front door, for one monitor or a fleet::

    session = DetectionSession(kernel, monitors=[alloc, coord])
    session.start()
    kernel.run(until=30.0)
    session.stop()
    for report in session.reports:
        print(report.render())

Scaling out and hardening are keyword arguments, not different APIs::

    session = DetectionSession(
        kernel,
        monitors=fleet,
        config=DetectorConfig.preset("bounded", interval=0.5),
        shards=4,                  # staggered DetectionCluster
        durable_dir="state/",      # per-shard WAL + snapshots
    )

Internally every session is a :class:`~repro.detection.cluster.DetectionCluster`
(a 1-shard cluster *is* a single engine plus supervision), so the
reporting surface, durability controls and per-shard accounting are
uniform regardless of scale.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.detection.cluster import DetectionCluster
from repro.detection.config import DetectorConfig
from repro.detection.durability import RecoverySummary
from repro.detection.engine import MonitorLike, RegisteredMonitor
from repro.detection.reports import FaultReport
from repro.detection.statistics import FaultStatistics
from repro.kernel.syscalls import Delay
from repro.observability.export import write_metrics_json
from repro.observability.registry import MetricsRegistry

__all__ = ["DetectionSession"]


class DetectionSession:
    """The detection stack — engine/cluster, supervision, durability — as
    one object with one constructor.

    Parameters
    ----------
    kernel:
        The substrate the monitors live on.
    monitors:
        Monitors to register up front (more can join via :meth:`register`).
    config:
        :class:`DetectorConfig` (default: ``DetectorConfig.preset("paper")``).
    shards:
        Number of engine shards (default 1); monitors are placed
        round-robin unless :meth:`register` pins one with ``shard=``, and
        capture schedules are staggered across shards per
        ``config.stagger``.
    durable_dir:
        When set, every shard gets a WAL + snapshot + report journal under
        ``durable_dir/shard-<k>`` and :meth:`recover` restores a restarted
        session from them.
    supervised:
        Pace checkpoints through each shard's
        :class:`~repro.detection.supervision.CheckpointSupervisor`
        (retry/backoff/stall watchdog) instead of raw checkpoints.
    evaluation:
        Where phase 2 runs — ``"threads"`` or ``"inline"`` (default:
        threads on the thread kernel, inline on the sim kernel; see
        :class:`DetectionCluster`).
    """

    def __init__(
        self,
        kernel,
        monitors: Sequence[MonitorLike] = (),
        *,
        config: Optional[DetectorConfig] = None,
        shards: int = 1,
        durable_dir: Optional[Union[str, Path]] = None,
        supervised: bool = True,
        fsync: str = "interval",
        evaluation: Optional[str] = None,
        metrics_path: Optional[Union[str, Path]] = None,
        metrics_every: Optional[float] = None,
    ) -> None:
        if metrics_every is not None and metrics_every <= 0:
            raise ValueError(
                f"metrics_every must be positive, got {metrics_every}"
            )
        if metrics_every is not None and metrics_path is None:
            raise ValueError("metrics_every requires metrics_path")
        #: Opt-in metrics dump target: written on :meth:`stop`, and every
        #: ``metrics_every`` kernel seconds while the session runs.
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.metrics_every = metrics_every
        self.config = config or DetectorConfig()
        self.cluster = DetectionCluster(
            kernel,
            self.config,
            shards=shards,
            durable_root=durable_dir,
            fsync=fsync,
            evaluation=evaluation,
        )
        self.supervised = supervised
        self._pids: list = []
        for monitor in monitors:
            self.register(monitor)

    # ------------------------------------------------------------------ fleet

    @property
    def kernel(self):
        return self.cluster.kernel

    @property
    def durable(self) -> bool:
        return self.cluster.durable_root is not None

    def register(
        self,
        target: MonitorLike,
        config: Optional[DetectorConfig] = None,
        *,
        label: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> RegisteredMonitor:
        """Add a monitor (see :meth:`DetectionCluster.register`)."""
        return self.cluster.register(target, config, label=label, shard=shard)

    def unregister(self, target) -> None:
        self.cluster.unregister(target)

    # -------------------------------------------------------------- lifecycle

    def start(self, *, rounds: Optional[int] = None) -> list:
        """Spawn the per-shard pacing processes; returns their pids.

        For a durable session this first persists the post-assembly
        baseline snapshots, so a crash before the first checkpoint still
        recovers to a consistent (empty-window) state.
        """
        if self.started:
            raise RuntimeError("session already started")
        if self.durable:
            self.cluster.baseline()
        self._pids = self.cluster.spawn_processes(
            rounds=rounds, supervised=self.supervised
        )
        if self.metrics_path is not None and self.metrics_every is not None:
            self._pids.append(
                self.kernel.spawn(
                    self._metrics_dumper(), name="metrics-dumper"
                )
            )
        return list(self._pids)

    def _metrics_dumper(self):
        while not self.stopped:
            yield Delay(self.metrics_every)
            if self.stopped:
                return
            self.dump_metrics()

    @property
    def started(self) -> bool:
        return bool(self._pids)

    def checkpoint(self) -> list[FaultReport]:
        """One manual checkpoint across every shard (evaluations awaited)."""
        return self.cluster.checkpoint()

    def drain(self) -> None:
        """Wait for offloaded phase-2 evaluations (thread kernel)."""
        self.cluster.drain()

    def stop(self) -> None:
        """Stop all shards, drain the worker pool, flush durable state.

        When the session was built with ``metrics_path``, the final
        metrics snapshot is exported there as JSON.
        """
        self.cluster.stop()
        if self.metrics_path is not None:
            self.dump_metrics()

    @property
    def stopped(self) -> bool:
        return self.cluster.stopped

    # ------------------------------------------------------------- durability

    def recover(self) -> list[RecoverySummary]:
        """Restore a restarted durable session (see
        :meth:`DetectionCluster.recover`): rebuild the same fleet first,
        then call this once before :meth:`start`."""
        return self.cluster.recover()

    # -------------------------------------------------------------- reporting
    # The session's own surface mirrors the engine's; everything else
    # (counters, shards, quarantine_report, …) passes through.

    @property
    def reports(self) -> list[FaultReport]:
        return self.cluster.reports

    def reports_by_monitor(self) -> dict[str, list[FaultReport]]:
        return self.cluster.reports_by_monitor()

    def reports_for_rule(self, rule) -> list[FaultReport]:
        return self.cluster.reports_for_rule(rule)

    def implicated_faults(self) -> frozenset:
        return self.cluster.implicated_faults()

    @property
    def clean(self) -> bool:
        return self.cluster.clean

    @property
    def confirmed_clean(self) -> bool:
        return self.cluster.confirmed_clean

    def statistics(self) -> FaultStatistics:
        """Frequency statistics over the merged report stream."""
        return FaultStatistics.from_engine(self.cluster)

    def metrics(self) -> MetricsRegistry:
        """A fresh registry snapshot of the whole session (see
        :meth:`DetectionCluster.metrics`) — the surface ``repro metrics``,
        the exporters, and the gate runner consume."""
        return self.cluster.metrics()

    def dump_metrics(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Export the current metrics snapshot as JSON to ``path``
        (default: the session's ``metrics_path``)."""
        target = Path(path) if path is not None else self.metrics_path
        if target is None:
            raise ValueError(
                "no dump target: pass path= or build the session "
                "with metrics_path="
            )
        write_metrics_json(str(target), self.metrics())
        return target

    def __getattr__(self, name: str):
        # Everything not overridden falls through to the cluster, so the
        # session is a drop-in for code written against engine surfaces.
        return getattr(self.cluster, name)

    def __repr__(self) -> str:
        return (
            f"DetectionSession(shards={self.cluster.shard_count}, "
            f"monitors={len(self.cluster.entries)}, "
            f"supervised={self.supervised}, durable={self.durable}, "
            f"started={self.started}, reports={len(self.reports)})"
        )
