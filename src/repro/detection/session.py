"""One constructor for the whole detection stack: :class:`DetectionSession`.

A session is the one front door, for one monitor or a fleet::

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
        config=DetectorConfig(interval=0.5, stall_timeout=10.0),
        shards=4,                  # staggered shards
        durable_dir="state/",      # per-shard WAL + snapshots
    )

A session *is* its :class:`~repro.detection.cluster.DetectionCluster` (a
1-shard cluster is a single engine plus supervision), so the reporting
surface, durability controls and per-shard accounting are uniform
regardless of scale.  Every round runs on its shard's own pacing
process, through the shard's
:class:`~repro.detection.supervision.CheckpointSupervisor` (retries with
backoff, stall watchdog).  The session adds only up-front registration,
:meth:`~DetectionSession.start` and :meth:`~DetectionSession.statistics`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.detection.cluster import DetectionCluster
from repro.detection.config import DetectorConfig
from repro.detection.engine import MonitorLike
from repro.detection.statistics import FaultStatistics

__all__ = ["DetectionSession"]


class DetectionSession(DetectionCluster):
    """The detection stack — shards, supervision, durability — as one
    object with one constructor.

    Parameters
    ----------
    kernel:
        The substrate the monitors live on.
    monitors:
        Monitors to register up front (more can join via :meth:`register`).
    config:
        :class:`DetectorConfig` (default: ``DetectorConfig()``, the
        paper's fixed-period checking).
    shards:
        Number of engine shards (default 1); monitors are placed
        round-robin unless :meth:`register` pins one with ``shard=``, and
        capture schedules are staggered across shards.
    durable_dir:
        When set, every shard keeps a WAL + snapshot + report journal
        under ``durable_dir/shard-<k>`` and :meth:`recover` restores a
        restarted session from them.
    fsync:
        WAL fsync policy of a durable session.
    evaluation:
        Accepted for existing callers; its only value is ``"inline"``
        (phase 2 runs on the shard's pacing process, the only plane).
    """

    def __init__(
        self,
        kernel,
        monitors: Sequence[MonitorLike] = (),
        *,
        config: Optional[DetectorConfig] = None,
        shards: int = 1,
        durable_dir: Optional[Union[str, Path]] = None,
        fsync: str = "interval",
        evaluation: str = "inline",
    ) -> None:
        if evaluation != "inline":
            raise ValueError(
                f"evaluation must be 'inline'; got {evaluation!r}"
            )
        super().__init__(
            kernel,
            config,
            shards=shards,
            durable_root=durable_dir,
            fsync=fsync,
        )
        self._pids: list = []
        for monitor in monitors:
            self.register(monitor)

    def start(self, *, rounds: Optional[int] = None) -> list:
        """Spawn the per-shard pacing processes; returns their pids.

        For a durable session this first persists the post-assembly
        baseline snapshots, so a crash before the first checkpoint still
        recovers to a consistent (empty-window) state.
        """
        if self.started:
            raise RuntimeError("session already started")
        self.baseline()
        self._pids = self.spawn_processes(rounds=rounds)
        return list(self._pids)

    @property
    def started(self) -> bool:
        return bool(self._pids)

    def statistics(self) -> FaultStatistics:
        """Frequency statistics over the merged report stream."""
        return FaultStatistics.from_engine(self)
