"""Fault injection — the robustness experiment's machinery (Section 4).

The paper evaluates robustness by injecting "faults of different kinds as
classified in Section 3.2" and reports that all injected faults are
detected.  This package makes that experiment reproducible:

* :class:`~repro.injection.hooks.TriggeredHooks` — a configurable
  :class:`~repro.monitor.hooks.CoreHooks` that fires one named perturbation
  on its n-th opportunity,
* :mod:`repro.injection.campaigns` — one campaign per taxonomy entry
  (21 total): each builds a deterministic workload, injects exactly one
  fault, runs the detector, and scores whether any report implicates the
  injected fault class.
* :mod:`repro.injection.chaos` — the inverse experiment: a *healthy*
  workload with faults injected into the detection pipeline itself
  (raising rule evaluators, transient checkpoint failures, delays,
  event-drop bursts), asserting the supervised engine degrades instead of
  crashing or false-positiving — plus the crash-durability campaign
  (:func:`~repro.injection.chaos.run_crash_recovery_campaign`) that kills
  and restarts a one-shard durable
  :class:`~repro.detection.session.DetectionSession` at seeded
  :class:`~repro.injection.chaos.CrashPoint`\\ s.  Each of these
  campaigns, and the network one (:mod:`repro.injection.network`),
  returns one :class:`~repro.injection.chaos.CampaignResult`: the metrics
  of its run and the gates that are its verdict.
"""

from repro.injection.campaigns import (
    CAMPAIGNS,
    CampaignOutcome,
    run_all_campaigns,
    run_campaign,
)
from repro.injection.chaos import (
    CampaignResult,
    ChaosConfig,
    ChaosError,
    ChaosInjector,
    CrashPoint,
    CrashRecoveryConfig,
    SabotagedCheck,
    SimulatedCrash,
    run_chaos_campaign,
    run_crash_recovery_campaign,
    sabotage_entry,
)
from repro.injection.hooks import TriggeredHooks

__all__ = [
    "TriggeredHooks",
    "CampaignOutcome",
    "CAMPAIGNS",
    "run_campaign",
    "run_all_campaigns",
    "CampaignResult",
    "ChaosError",
    "ChaosConfig",
    "ChaosInjector",
    "SabotagedCheck",
    "sabotage_entry",
    "run_chaos_campaign",
    "CrashPoint",
    "SimulatedCrash",
    "CrashRecoveryConfig",
    "run_crash_recovery_campaign",
]
