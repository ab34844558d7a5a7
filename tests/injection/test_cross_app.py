"""Cross-application injection: level-I faults are app-independent.

The campaign table runs implementation-level faults against the bounded
buffer; detection must not depend on that choice.  Here the same
perturbations are injected into an *allocator* workload and into the
*shared account* (operation-manager) workload, and the detector must still
implicate the fault.
"""

import pytest

from repro.apps import SharedAccount, SingleResourceAllocator
from repro.detection import (
    DetectionSession,
    DetectorConfig,
    FaultClass,
)
from repro.history import HistoryDatabase
from repro.injection import TriggeredHooks
from repro.kernel import Delay, RandomPolicy, SimKernel


def run_allocator_with(hooks, seed=0):
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    allocator = SingleResourceAllocator(
        kernel, history=HistoryDatabase(), hooks=hooks
    )
    hooks.core = allocator.monitor.core
    detector = DetectionSession(
        kernel,
        monitors=[allocator],
        config=DetectorConfig(interval=0.3, tmax=5.0, tio=10.0, tlimit=None),
    )

    def user(index):
        for __ in range(6):
            yield Delay(0.02 * (index + 1))
            yield from allocator.request()
            yield Delay(0.1)
            yield from allocator.release()

    for index in range(4):
        kernel.spawn(user(index))
    detector.start()
    kernel.run(until=25)
    return hooks, detector


def run_account_with(hooks, seed=0):
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    account = SharedAccount(kernel, 0, history=HistoryDatabase(), hooks=hooks)
    hooks.core = account.monitor.core
    detector = DetectionSession(
        kernel,
        monitors=[account],
        config=DetectorConfig(interval=0.3, tmax=8.0, tio=10.0),
    )

    def depositor():
        for __ in range(15):
            yield Delay(0.08)
            yield from account.deposit(5)

    def withdrawer(amount):
        for __ in range(5):
            yield Delay(0.1)
            yield from account.withdraw(amount)

    kernel.spawn(depositor())
    kernel.spawn(withdrawer(10))
    kernel.spawn(withdrawer(5))
    detector.start()
    kernel.run(until=25)
    return hooks, detector


class TestAllocatorHost:
    def test_fake_resume_detected(self):
        hooks, detector = run_allocator_with(TriggeredHooks("fake_resume"))
        assert hooks.fired == 1
        assert FaultClass.SIGEXIT_NO_RESUME in detector.implicated_faults()

    def test_hold_monitor_on_exit_detected(self):
        hooks, detector = run_allocator_with(
            TriggeredHooks("hold_monitor_on_exit")
        )
        assert hooks.fired == 1
        assert FaultClass.SIGEXIT_MONITOR_HELD in detector.implicated_faults()

    def test_wait_lose_caller_detected(self):
        hooks, detector = run_allocator_with(
            TriggeredHooks("wait_lose_caller")
        )
        assert hooks.fired == 1
        assert FaultClass.WAIT_CALLER_LOST in detector.implicated_faults()


class TestAccountHost:
    def test_fake_resume_detected(self):
        hooks, detector = run_account_with(TriggeredHooks("fake_resume"))
        assert hooks.fired == 1
        assert FaultClass.SIGEXIT_NO_RESUME in detector.implicated_faults()

    def test_wait_no_block_detected(self):
        hooks, detector = run_account_with(TriggeredHooks("wait_no_block"))
        assert hooks.fired == 1
        assert FaultClass.WAIT_NO_BLOCK in detector.implicated_faults()

    def test_suppress_enter_record_detected(self):
        hooks, detector = run_account_with(
            TriggeredHooks("suppress_enter_record", fire_at=3)
        )
        assert hooks.fired == 1
        assert FaultClass.ENTER_NOT_OBSERVED in detector.implicated_faults()
