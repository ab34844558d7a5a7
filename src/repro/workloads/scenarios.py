"""Deterministic workload scenarios, one per monitor type.

Three scenarios mirror the paper's three monitor classes:

* ``coordinator`` — producers/consumers over a
  :class:`~repro.apps.bounded_buffer.BoundedBuffer`,
* ``allocator`` — competing users over a
  :class:`~repro.apps.resource_allocator.SingleResourceAllocator`,
* ``manager`` — depositors/withdrawers over a
  :class:`~repro.apps.shared_account.SharedAccount`.

Each scenario builds the monitor (optionally with the detection extension)
and the process bodies on a caller-supplied kernel, so the same workload
runs identically on the simulation and the thread kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.apps.bounded_buffer import BoundedBuffer
from repro.apps.resource_allocator import SingleResourceAllocator
from repro.apps.shared_account import SharedAccount
from repro.history.database import HistoryDatabase
from repro.history.sink import EventSink
from repro.kernel.base import Kernel
from repro.kernel.syscalls import Delay, Syscall
from repro.monitor.construct import MonitorBase

__all__ = [
    "WorkloadSpec",
    "ScenarioRun",
    "Scenario",
    "SCENARIOS",
    "build_scenario",
    "build_fleet",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters shared by every scenario.

    ``operations`` is the per-process operation count; ``think_time`` the
    inter-operation delay; ``service_time`` the time spent holding the
    monitor per operation (coordinator scenario only — the other monitors'
    critical sections are intrinsically short).
    """

    processes: int = 4
    operations: int = 50
    think_time: float = 0.05
    service_time: float = 0.01
    capacity: int = 4
    seed: int = 0

    @property
    def total_operations(self) -> int:
        return self.processes * self.operations


@dataclass
class ScenarioRun:
    """A built (not yet executed) scenario instance."""

    name: str
    monitor: MonitorBase
    bodies: list[Iterator[Syscall]]
    spec: WorkloadSpec

    def spawn_all(self, kernel: Kernel, *, prefix: str = "") -> None:
        for index, body in enumerate(self.bodies):
            kernel.spawn(body, f"{prefix}{self.name}-{index}")


@dataclass(frozen=True)
class Scenario:
    """A named workload shape over one monitor type."""

    name: str
    description: str
    build: Callable[[Kernel, Optional[EventSink], WorkloadSpec], ScenarioRun]


# ---------------------------------------------------------------------------
# coordinator: producers / consumers over a bounded buffer
# ---------------------------------------------------------------------------


def _build_coordinator(
    kernel: Kernel, history: Optional[EventSink], spec: WorkloadSpec
) -> ScenarioRun:
    buffer = BoundedBuffer(
        kernel,
        capacity=spec.capacity,
        history=history,
        service_time=spec.service_time,
    )
    half = max(1, spec.processes // 2)

    def producer() -> Iterator[Syscall]:
        for item in range(spec.operations):
            yield Delay(spec.think_time)
            yield from buffer.send(item)

    def consumer() -> Iterator[Syscall]:
        for __ in range(spec.operations):
            yield Delay(spec.think_time)
            yield from buffer.receive()

    bodies = [producer() for __ in range(half)]
    bodies += [consumer() for __ in range(half)]
    return ScenarioRun("coordinator", buffer, bodies, spec)


# ---------------------------------------------------------------------------
# allocator: users competing for one resource
# ---------------------------------------------------------------------------


def _build_allocator(
    kernel: Kernel, history: Optional[EventSink], spec: WorkloadSpec
) -> ScenarioRun:
    allocator = SingleResourceAllocator(kernel, history=history)

    def user(index: int) -> Iterator[Syscall]:
        for __ in range(spec.operations):
            yield Delay(spec.think_time * (1 + 0.1 * index))
            yield from allocator.request()
            yield Delay(spec.service_time)
            yield from allocator.release()

    bodies = [user(index) for index in range(spec.processes)]
    return ScenarioRun("allocator", allocator, bodies, spec)


# ---------------------------------------------------------------------------
# manager: depositors / withdrawers over a shared account
# ---------------------------------------------------------------------------


def _build_manager(
    kernel: Kernel, history: Optional[EventSink], spec: WorkloadSpec
) -> ScenarioRun:
    account = SharedAccount(kernel, initial_balance=0, history=history)
    half = max(1, spec.processes // 2)

    def depositor() -> Iterator[Syscall]:
        for __ in range(spec.operations):
            yield Delay(spec.think_time)
            yield from account.deposit(10)

    def withdrawer() -> Iterator[Syscall]:
        for __ in range(spec.operations):
            yield Delay(spec.think_time)
            yield from account.withdraw(10)

    bodies = [depositor() for __ in range(half)]
    bodies += [withdrawer() for __ in range(half)]
    return ScenarioRun("manager", account, bodies, spec)


SCENARIOS: dict[str, Scenario] = {
    "coordinator": Scenario(
        "coordinator",
        "producers/consumers over a bounded buffer "
        "(communication coordinator)",
        _build_coordinator,
    ),
    "allocator": Scenario(
        "allocator",
        "competing users over a Request/Release allocator "
        "(resource-access-right allocator)",
        _build_allocator,
    ),
    "manager": Scenario(
        "manager",
        "depositors/withdrawers over a shared account "
        "(resource operation manager)",
        _build_manager,
    ),
}


def build_scenario(
    name: str,
    kernel: Kernel,
    history: Optional[EventSink],
    spec: Optional[WorkloadSpec] = None,
) -> ScenarioRun:
    """Instantiate a named scenario on ``kernel``."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return scenario.build(kernel, history, spec or WorkloadSpec())


def build_fleet(
    kernel: Kernel,
    count: int,
    spec: Optional[WorkloadSpec] = None,
    *,
    names: Optional[Sequence[str]] = None,
    sink_factory: Optional[Callable[[], Optional[EventSink]]] = None,
) -> list[ScenarioRun]:
    """Instantiate ``count`` independent monitored workloads on one kernel.

    The multi-monitor driver behind the engine-scaling benchmark and the
    shared :class:`~repro.detection.engine.DetectionEngine` examples: each
    instance gets its own monitor and its own event sink (a fresh
    :class:`HistoryDatabase` unless ``sink_factory`` supplies something
    else, e.g. a :class:`~repro.history.bounded.BoundedHistory`), cycling
    round-robin through ``names`` (all scenarios, by default).
    """
    if count <= 0:
        raise ValueError(f"fleet size must be positive, got {count}")
    chosen = tuple(names) if names else tuple(sorted(SCENARIOS))
    for name in chosen:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
            )
    factory = sink_factory or (lambda: HistoryDatabase())
    return [
        SCENARIOS[chosen[index % len(chosen)]].build(
            kernel, factory(), spec or WorkloadSpec()
        )
        for index in range(count)
    ]
