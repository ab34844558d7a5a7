"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Iterator, Optional

import pytest

from repro.detection import CheckpointSupervisor
from repro.history import HistoryDatabase
from repro.kernel import Delay, RandomPolicy, SimKernel
from repro.kernel.syscalls import Syscall


@pytest.fixture
def kernel() -> SimKernel:
    """A deterministic simulation kernel with seeded random scheduling."""
    return SimKernel(RandomPolicy(seed=0), on_deadlock="stop")


@pytest.fixture
def fifo_kernel() -> SimKernel:
    """A FIFO simulation kernel (fully deterministic ordering)."""
    return SimKernel(on_deadlock="stop")


@pytest.fixture
def history() -> HistoryDatabase:
    return HistoryDatabase(retain_full_trace=True)


def run_to_completion(kernel: SimKernel, until: Optional[float] = None):
    """Run the kernel and re-raise any process failure."""
    result = kernel.run(until=until)
    kernel.raise_failures()
    return result


def producer(buffer, items: int, delay: float = 0.05) -> Iterator[Syscall]:
    for item in range(items):
        yield Delay(delay)
        yield from buffer.send(item)


def consumer(buffer, items: int, sink: Optional[list] = None,
             delay: float = 0.05) -> Iterator[Syscall]:
    for __ in range(items):
        yield Delay(delay)
        item = yield from buffer.receive()
        if sink is not None:
            sink.append(item)


def supervise(engine) -> CheckpointSupervisor:
    """A supervisor over ``engine.checkpoint``, with the engine's clock and
    config; pace it with ``supervisor_process``."""
    return CheckpointSupervisor(engine.checkpoint, engine.kernel, engine.config)
