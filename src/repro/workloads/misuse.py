"""The misuse workload: a buffer pipeline beside a misused allocator.

The crash-recovery campaign, the network chaos campaign and ``repro
service-client`` drive the same deterministic fault script against a
:class:`~repro.apps.bounded_buffer.BoundedBuffer` and a
:class:`~repro.apps.resource_allocator.SingleResourceAllocator`.  The
misuser releases without a Request (ST-8b/ST-PX), later makes a duplicate
Request (ST-8a) and then holds the resource long enough that the periodic
Request-List sweep reports ST-8c at several checkpoints; a rogue rescuer
releases once more (ST-8b) and so un-wedges it.  The script thus yields
both event-triggered and checkpoint-derived reports.
"""

from __future__ import annotations

from typing import Iterator

from repro.apps.bounded_buffer import BoundedBuffer
from repro.apps.resource_allocator import SingleResourceAllocator
from repro.kernel.syscalls import Delay, Syscall

__all__ = ["spawn_misuse_workload"]


def spawn_misuse_workload(
    kernel,
    buffer: BoundedBuffer,
    allocator: SingleResourceAllocator,
    *,
    operations: int,
    interval: float,
    phase: float,
    start: float = 0.35,
    suffix: str = "",
    good_user: bool = False,
) -> None:
    """Spawn the producer, consumer, misuser and rescuer on ``kernel``.

    The producer and consumer move ``operations`` items through
    ``buffer``.  The misuser's rogue release comes at virtual time
    ``start``, its legitimate and duplicate Requests ``phase`` later, and
    it holds the resource for ``3.1 * interval`` once the rescuer wakes
    it.  ``good_user`` adds a well-behaved requester, spawned between the
    consumer and the misuser: spawn order fixes the pids and so the
    seeded schedule.  Every process name ends in ``suffix``.
    """

    def producer() -> Iterator[Syscall]:
        for item in range(operations):
            yield Delay(0.11)
            yield from buffer.send(item)

    def consumer() -> Iterator[Syscall]:
        for __ in range(operations):
            yield Delay(0.12)
            yield from buffer.receive()

    def well_behaved() -> Iterator[Syscall]:
        for __ in range(operations):
            yield Delay(0.21)
            yield from allocator.request()
            yield Delay(0.03)
            yield from allocator.release()

    def misuser() -> Iterator[Syscall]:
        yield Delay(start)
        yield from allocator.release()  # ST-8b + ST-PX (no Request)
        yield Delay(phase)
        yield from allocator.request()  # legitimate
        yield Delay(0.07)
        yield from allocator.request()  # ST-8a duplicate; blocks on itself
        # ...until the rescuer's rogue release wakes it.  Hold a little
        # longer so the Tlimit sweep sees the aged Request-List entry.
        yield Delay(3.1 * interval)
        yield from allocator.release()

    def rescuer() -> Iterator[Syscall]:
        # A second rogue release (ST-8b) that also un-wedges the misuser.
        yield Delay(start + phase + 0.6)
        yield from allocator.release()

    kernel.spawn(producer(), f"producer{suffix}")
    kernel.spawn(consumer(), f"consumer{suffix}")
    if good_user:
        kernel.spawn(well_behaved(), f"good-user{suffix}")
    kernel.spawn(misuser(), f"misuser{suffix}")
    kernel.spawn(rescuer(), f"rescuer{suffix}")
