"""The record hook builds events without the validating constructor.

``MonitorCore._record`` builds each ``SchedulingEvent`` as a plain tuple
record, skipping the constructor's two checks (the flag is 0 or 1, a Wait
names its condition) because every call site already satisfies them.
These tests collect every event the core records over the three healthy
scenarios, all injected fault campaigns and the Hoare and Mesa
disciplines, and check each one against the validating constructor.
"""

from __future__ import annotations

import pytest

from repro.apps import BarberShop, CyclicBarrier, HoareBoundedBuffer
from repro.history import HistoryDatabase
from repro.history.events import EventKind, SchedulingEvent
from repro.injection.campaigns import run_all_campaigns
from repro.kernel import Delay, RandomPolicy, SimKernel
from repro.monitor.core import MonitorCore
from repro.workloads.scenarios import SCENARIOS, WorkloadSpec, build_scenario
from tests.conftest import consumer, producer


def kernel(seed: int = 0) -> SimKernel:
    return SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")


def healthy(name: str):
    def run() -> None:
        sim = kernel()
        spec = WorkloadSpec(processes=4, operations=20)
        build_scenario(name, sim, HistoryDatabase(), spec).spawn_all(sim)
        sim.run(until=60.0)
        sim.raise_failures()

    return run


def hoare() -> None:
    sim = kernel(1)
    buffer = HoareBoundedBuffer(sim, capacity=1, history=HistoryDatabase())
    for __ in range(2):
        sim.spawn(producer(buffer, 10, delay=0.02))
        sim.spawn(consumer(buffer, 10, delay=0.03))
    sim.run(until=60.0)
    sim.raise_failures()


def mesa() -> None:
    sim = kernel(2)
    barrier = CyclicBarrier(sim, parties=3, history=HistoryDatabase())
    shop = BarberShop(sim, chairs=2, history=HistoryDatabase())

    def party(index):
        for __ in range(3):
            yield Delay(0.1 * (index + 1))
            yield from barrier.await_barrier()

    def barber():
        while True:
            yield from shop.next_customer()
            yield Delay(0.1)
            yield from shop.finish_cut()

    def customer(index):
        yield Delay(0.05 * index)
        yield from shop.get_haircut()

    for index in range(3):
        sim.spawn(party(index))
    sim.spawn(barber(), "barber")
    for index in range(6):
        sim.spawn(customer(index))
    sim.run(until=60.0)
    sim.raise_failures()


WORKLOADS = {
    **{f"healthy:{name}": healthy(name) for name in sorted(SCENARIOS)},
    "campaigns": lambda: run_all_campaigns(seed=0),
    "hoare": hoare,
    "mesa": mesa,
}


@pytest.fixture(scope="module")
def recorded() -> dict[str, list[SchedulingEvent]]:
    """``{workload: every event the record hook returned while it ran}``."""
    record = MonitorCore._record
    events: list[SchedulingEvent] = []

    def recording(self, *args, **kwargs):
        event = record(self, *args, **kwargs)
        if event is not None:
            events.append(event)
        return event

    collected = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MonitorCore, "_record", recording)
        for name, run in WORKLOADS.items():
            run()
            collected[name] = events[:]
            events.clear()
    return collected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_recorded_event_passes_the_constructor(recorded, workload):
    events = recorded[workload]
    assert events
    for event in events:
        assert type(event) is SchedulingEvent
        assert event == SchedulingEvent(*event)


def test_every_kind_and_flag_is_recorded(recorded):
    # Each (kind, flag) pair a record site can produce shows up, so the
    # workloads above reach all of them.
    seen = {
        (event.kind, event.flag)
        for events in recorded.values()
        for event in events
    }
    assert seen == {
        (EventKind.ENTER, 0),
        (EventKind.ENTER, 1),
        (EventKind.WAIT, 0),
        (EventKind.SIGNAL_EXIT, 0),
        (EventKind.SIGNAL_EXIT, 1),
        (EventKind.SIGNAL, 0),
        (EventKind.SIGNAL, 1),
    }
