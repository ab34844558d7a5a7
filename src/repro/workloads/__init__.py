"""Workload generation for experiments and benchmarks.

A :class:`~repro.workloads.scenarios.Scenario` bundles a monitor factory
and the process mix that drives it, parameterised by a
:class:`~repro.workloads.scenarios.WorkloadSpec`.  The overhead experiment
instantiates the same scenario repeatedly — with and without the detection
extension, across checking intervals and kernels — so everything that can
vary is captured in the spec and everything else is deterministic.
:func:`~repro.workloads.misuse.spawn_misuse_workload` is the seeded
allocator-misuse script the crash, network chaos and service-client
harnesses share.
"""

from repro.workloads.misuse import spawn_misuse_workload
from repro.workloads.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioRun,
    WorkloadSpec,
    build_fleet,
    build_scenario,
)

__all__ = [
    "WorkloadSpec",
    "Scenario",
    "ScenarioRun",
    "SCENARIOS",
    "build_scenario",
    "build_fleet",
    "spawn_misuse_workload",
]
