"""Integration tests for one-monitor DetectionSessions on live workloads
(the paper's per-monitor fault detection routine)."""

from repro.apps import BoundedBuffer, SharedAccount, SingleResourceAllocator
from repro.detection import DetectionSession, DetectorConfig, FaultClass, STRule
from repro.history import HistoryDatabase
from repro.kernel import Delay
from tests.conftest import consumer, producer


def run_buffer_workload(kernel, buffer, *, items=20, n=2):
    for __ in range(n):
        kernel.spawn(producer(buffer, items))
    for __ in range(n):
        kernel.spawn(consumer(buffer, items))


class TestCleanWorkloads:
    def test_buffer_clean(self, kernel):
        buffer = BoundedBuffer(
            kernel, capacity=3, history=HistoryDatabase(), service_time=0.02
        )
        session = DetectionSession(
            kernel,
            monitors=[buffer],
            config=DetectorConfig(interval=0.5, tmax=10.0, tio=10.0),
        )
        run_buffer_workload(kernel, buffer)
        session.start()
        kernel.run(until=30)
        kernel.raise_failures()
        assert session.clean
        assert session.checkpoints_run > 10

    def test_allocator_clean_with_realtime_orders(self, kernel):
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(
            kernel,
            monitors=[allocator],
            config=DetectorConfig(interval=0.5, tlimit=10.0),
        )

        def user(i):
            for __ in range(5):
                yield Delay(0.05 * (i + 1))
                yield from allocator.request()
                yield Delay(0.1)
                yield from allocator.release()

        for i in range(4):
            kernel.spawn(user(i))
        session.start()
        kernel.run(until=30)
        kernel.raise_failures()
        assert session.clean

    def test_account_clean(self, kernel):
        account = SharedAccount(kernel, 100, history=HistoryDatabase())
        session = DetectionSession(
            kernel,
            monitors=[account],
            config=DetectorConfig(interval=0.5, tmax=20.0, tio=20.0),
        )

        def depositor():
            for __ in range(10):
                yield Delay(0.1)
                yield from account.deposit(5)

        def withdrawer():
            for __ in range(10):
                yield Delay(0.12)
                yield from account.withdraw(5)

        kernel.spawn(depositor())
        kernel.spawn(withdrawer())
        session.start()
        kernel.run(until=30)
        kernel.raise_failures()
        assert session.clean


class TestConfiguration:
    def test_auto_attaches_history(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2)
        assert buffer.history is None
        entry = DetectionSession(kernel).register(buffer)
        assert buffer.history is not None
        assert entry.monitor.history is buffer.history

    def test_accepts_raw_monitor_or_base(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        via_base = DetectionSession(kernel).register(buffer)
        assert via_base.monitor is buffer.monitor
        other = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        via_monitor = DetectionSession(kernel).register(other.monitor)
        assert via_monitor.monitor is other.monitor

    def test_algorithm_selection_by_type(self, kernel):
        session = DetectionSession(kernel)
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        # Coordinators skip Algorithm-3.
        assert session.register(buffer).algorithm3 is None

        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        assert session.register(allocator).algorithm3 is not None

        account = SharedAccount(kernel, history=HistoryDatabase())
        assert session.register(account).algorithm3 is None

    def test_detector_process_rounds(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        session = DetectionSession(
            kernel, monitors=[buffer], config=DetectorConfig(interval=1.0)
        )
        session.start(rounds=3)
        kernel.run()
        assert session.checkpoints_run == 3

    def test_stop_ends_detector_process(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        session = DetectionSession(
            kernel, monitors=[buffer], config=DetectorConfig(interval=1.0)
        )

        def stopper():
            yield Delay(2.5)
            session.stop()

        session.start()
        kernel.spawn(stopper())
        result = kernel.run(until=100)
        assert result.quiesced
        assert session.checkpoints_run == 2

    def test_manual_checkpoint(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        session = DetectionSession(kernel, monitors=[buffer])
        run_buffer_workload(kernel, buffer, items=5, n=1)
        kernel.run(until=30)
        kernel.raise_failures()
        assert session.checkpoint() == []
        assert session.checkpoints_run == 1


class TestRealtimeOrderChecking:
    def test_level3_fault_reported_before_checkpoint(self, kernel):
        """Real-time mandate: the report must exist as soon as the event is
        recorded, without any checkpoint having run."""
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(
            kernel,
            monitors=[allocator],
            config=DetectorConfig(interval=1000.0),
        )

        def buggy():
            yield from allocator.release()  # release before request

        kernel.spawn(buggy())
        kernel.run(until=1.0)
        kernel.raise_failures()
        assert session.checkpoints_run == 0
        assert any(
            report.rule is STRule.RELEASE_REQUIRES_REQUEST
            for report in session.reports
        )
        assert any(
            report.implicates(FaultClass.RELEASE_BEFORE_REQUEST)
            for report in session.reports
        )

    def test_periodic_mode_defers_order_checks(self, kernel):
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(
            kernel,
            monitors=[allocator],
            config=DetectorConfig(interval=5.0, realtime_orders=False),
        )

        def buggy():
            yield from allocator.release()

        kernel.spawn(buggy())
        kernel.run(until=1.0)
        kernel.raise_failures()
        assert session.reports == []  # not yet checked
        session.checkpoint()
        assert any(
            report.rule is STRule.RELEASE_REQUIRES_REQUEST
            for report in session.reports
        )


class TestReporting:
    def _release_before_request(self, kernel):
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(kernel, monitors=[allocator])

        def buggy():
            yield from allocator.release()

        kernel.spawn(buggy())
        kernel.run(until=1.0)
        kernel.raise_failures()
        return session

    def test_reports_for_rule_and_implicated_faults(self, kernel):
        session = self._release_before_request(kernel)
        by_rule = session.reports_for_rule(STRule.RELEASE_REQUIRES_REQUEST)
        assert len(by_rule) == 1
        assert FaultClass.RELEASE_BEFORE_REQUEST in session.implicated_faults()
        assert not session.clean

    def test_report_render(self, kernel):
        session = self._release_before_request(kernel)
        text = session.reports[0].render()
        assert "ST-8b" in text
        assert "allocator" in text
