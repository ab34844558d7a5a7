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

    * ``checkpoint_budget`` — wall-clock seconds one batched checkpoint may
      take before the supervisor counts a budget blow (None disables).
    * ``checkpoint_retries`` / ``retry_backoff`` — how often a failed
      checkpoint is retried, with exponential backoff starting at
      ``retry_backoff`` virtual seconds.
    * ``stall_timeout`` — virtual seconds without a completed checkpoint
      before the stall watchdog flags the pipeline (None disables).
    * ``monitor_check_budget`` — wall-clock seconds a *single* monitor's
      share of the checkpoint may take; blowing it repeatedly trips that
      monitor's circuit breaker (None disables).
    * ``breaker_failure_threshold`` — consecutive per-monitor check
      failures (exceptions or budget blows) before the monitor is
      quarantined (its breaker opens).
    * ``breaker_cooldown`` — virtual seconds a quarantined monitor sits out
      before a half-open probe checkpoint is allowed.

    Checking is fixed-period, as in the paper: every registered monitor is
    captured at every engine interval.  ``stagger`` offsets each shard of a
    :class:`~repro.detection.cluster.DetectionCluster` by
    ``interval * k / N`` so phase-1 world-stops never coincide; off, all
    shards fire at the same instants (useful for apples-to-apples
    measurements).  The shard count and the phase-2 evaluation plane are
    keywords of :class:`~repro.detection.session.DetectionSession`, not
    config fields.

    Rather than memorising the kwarg sprawl, start from a
    :meth:`preset` — ``DetectorConfig.preset("bounded", interval=0.5)`` —
    and override what differs.
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
    checkpoint_budget: Optional[float] = None
    checkpoint_retries: int = 2
    retry_backoff: float = 0.1
    #: Randomised stretch on each retry backoff: the delay becomes
    #: ``backoff * 2**attempt * (1 + U[0, retry_jitter])``, drawn from the
    #: supervisor's own seeded RNG so sim runs stay deterministic.  Zero
    #: keeps the historical lockstep schedule — with many supervised
    #: engines sharing a failing dependency, lockstep retries stampede it
    #: in unison; jitter spreads them out.
    retry_jitter: float = 0.0
    stall_timeout: Optional[float] = None
    monitor_check_budget: Optional[float] = None
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 5.0
    #: Offset each cluster shard's capture schedule within the interval.
    stagger: bool = True

    #: Named starting points for common deployments (see :meth:`preset`).
    _PRESETS = {
        # The paper's setup: fixed-period checking, nothing bounded.
        "paper": {},
        # Production-shaped: every detector failure mode bounded.
        "bounded": {
            "checkpoint_budget": 0.5,
            "checkpoint_retries": 2,
            "retry_backoff": 0.1,
            "retry_jitter": 0.25,
            "stall_timeout": 10.0,
            "monitor_check_budget": 0.25,
        },
        # Crash-durable pipelines: patient retries + a stall watchdog.
        "durable": {
            "checkpoint_retries": 3,
            "retry_backoff": 0.1,
            "retry_jitter": 0.25,
            "stall_timeout": 15.0,
        },
    }

    @classmethod
    def preset(cls, name: str, **overrides) -> "DetectorConfig":
        """A named configuration baseline, with optional field overrides.

        ``preset("paper")`` is the default config; ``"bounded"`` turns on
        every supervision bound; ``"durable"`` suits WAL-backed pipelines.
        Overrides win over the preset: ``preset("bounded", interval=0.5)``.
        """
        try:
            base = dict(cls._PRESETS[name])
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; choose from "
                f"{sorted(cls._PRESETS)}"
            ) from None
        base.update(overrides)
        return cls(**base)

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
        for name in ("checkpoint_budget", "stall_timeout", "monitor_check_budget"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(
                    f"{name} must be None or positive, got {value!r}"
                )
        if self.checkpoint_retries < 0:
            raise ValueError(
                f"checkpoint_retries must be >= 0, got {self.checkpoint_retries!r}"
            )
        if self.retry_backoff <= 0:
            raise ValueError(
                f"retry_backoff must be positive, got {self.retry_backoff!r}"
            )
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError(
                f"retry_jitter must be in [0, 1], got {self.retry_jitter!r}"
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
