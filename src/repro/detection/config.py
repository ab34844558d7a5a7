"""Detection tunables shared by the engine and the single-monitor façade."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DetectorConfig"]


@dataclass(frozen=True)
class DetectorConfig:
    """Tunables of the detection machinery.

    ``interval`` is the checking period ``T`` (Section 3.3: ``Tmax < T``
    keeps periodic checking sound; ``T = 1`` event-time makes it real-time).
    ``tmax`` bounds residence inside the monitor / on condition queues,
    ``tio`` bounds entry-queue residence, ``tlimit`` bounds resource
    holding.  Any timeout may be None to disable that sweep.

    The supervision fields bound the *detector's own* failure modes (the
    pipeline must degrade, not take the application down — see
    :mod:`repro.detection.supervision`):

    * ``checkpoint_retries`` / ``retry_backoff`` — how often a failed
      checkpoint is retried, with exponential backoff starting at
      ``retry_backoff`` virtual seconds.
    * ``stall_timeout`` — virtual seconds without a completed checkpoint
      before the stall watchdog flags the pipeline (None disables).
    * ``breaker_failure_threshold`` — consecutive per-monitor check
      failures before the monitor is quarantined (its breaker opens).
    * ``breaker_cooldown`` — virtual seconds a quarantined monitor sits out
      before a half-open probe checkpoint is allowed.

    Checking is fixed-period, as in the paper: every registered monitor is
    captured at every engine interval, and each shard evaluates on its own
    pacing process.  The shard count is a keyword of
    :class:`~repro.detection.session.DetectionSession`, not a config field.
    """

    interval: float = 1.0
    tmax: Optional[float] = 5.0
    tio: Optional[float] = 10.0
    tlimit: Optional[float] = 10.0
    #: Drive Algorithm-3 Step 1 on every event (the paper's mandate for
    #: allocator monitors).  False falls back to replaying the window's
    #: events at each checkpoint instead.
    realtime_orders: bool = True
    #: Carry Algorithm-1's checking lists across checkpoints (one
    #: persistent replay machine per monitor) so phase-2 evaluation costs
    #: O(new events), not O(window re-seed).  The report stream is
    #: byte-identical either way; False falls back to the stateless
    #: full re-walk — the differential-testing oracle.
    incremental_checking: bool = True
    # ------------------------------------------------- supervision tunables
    checkpoint_retries: int = 2
    retry_backoff: float = 0.1
    stall_timeout: Optional[float] = None
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(
                f"checking interval must be positive, got {self.interval!r}"
            )
        for name in ("tmax", "tio", "tlimit"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(
                    f"{name} must be None or non-negative, got {value!r}"
                )
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ValueError(
                "stall_timeout must be None or positive, got "
                f"{self.stall_timeout!r}"
            )
        if self.checkpoint_retries < 0:
            raise ValueError(
                f"checkpoint_retries must be >= 0, got {self.checkpoint_retries!r}"
            )
        if self.retry_backoff <= 0:
            raise ValueError(
                f"retry_backoff must be positive, got {self.retry_backoff!r}"
            )
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                "breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold!r}"
            )
        if self.breaker_cooldown <= 0:
            raise ValueError(
                f"breaker_cooldown must be positive, got {self.breaker_cooldown!r}"
            )
