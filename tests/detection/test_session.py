"""DetectionSession facade: construction, lifecycle and sharding
passthrough."""

import pytest

from repro.apps import SingleResourceAllocator
from repro.detection import DetectionSession, DetectorConfig
from repro.history import HistoryDatabase
from repro.kernel import Delay, FifoPolicy, SimKernel


QUIET = dict(tmax=120.0, tio=120.0, tlimit=120.0)


def make_kernel():
    return SimKernel(FifoPolicy(), on_deadlock="stop")


def build_allocator(kernel):
    return SingleResourceAllocator(kernel, history=HistoryDatabase())


def spawn_users(kernel, allocator, *, rogue=False):
    def user():
        for __ in range(4):
            yield Delay(0.1)
            yield from allocator.request()
            yield Delay(0.05)
            yield from allocator.release()

    kernel.spawn(user(), "user")
    if rogue:

        def rogue_proc():
            yield Delay(3.0)
            yield from allocator.release()

        kernel.spawn(rogue_proc(), "rogue")


class TestSessionLifecycle:
    def test_clean_run(self):
        kernel = make_kernel()
        allocator = build_allocator(kernel)
        spawn_users(kernel, allocator)
        session = DetectionSession(
            kernel,
            monitors=[allocator],
            config=DetectorConfig(interval=0.25, **QUIET),
        )
        session.start()
        assert session.started
        kernel.run(until=4.0)
        session.stop()
        assert session.clean
        assert session.confirmed_clean
        assert session.reports == []
        assert session.implicated_faults() == frozenset()

    def test_faulty_run_reports(self):
        kernel = make_kernel()
        allocator = build_allocator(kernel)
        spawn_users(kernel, allocator, rogue=True)
        session = DetectionSession(
            kernel,
            monitors=[allocator],
            config=DetectorConfig(interval=0.25, **QUIET),
        )
        session.start()
        kernel.run(until=5.0)
        session.stop()
        assert not session.clean
        assert session.reports
        assert session.reports_by_monitor()
        stats = session.statistics()
        assert stats.total_reports == len(session.reports)

    def test_start_twice_raises(self):
        kernel = make_kernel()
        session = DetectionSession(kernel, monitors=[build_allocator(kernel)])
        session.start()
        with pytest.raises(RuntimeError, match="already started"):
            session.start()

    def test_register_after_construction(self):
        kernel = make_kernel()
        session = DetectionSession(kernel)
        entry = session.register(build_allocator(kernel), label="late")
        assert entry.label == "late"
        assert session.entries == (entry,)

    def test_sharded_session_staggers(self):
        kernel = make_kernel()
        monitors = [build_allocator(kernel) for __ in range(2)]
        session = DetectionSession(
            kernel,
            monitors=monitors,
            config=DetectorConfig(interval=1.0, **QUIET),
            shards=2,
        )
        assert session.shard_count == 2
        assert session.offsets == (0.0, 0.5)

    def test_durable_session_round_trip(self, tmp_path):
        kernel = make_kernel()
        allocator = build_allocator(kernel)
        spawn_users(kernel, allocator, rogue=True)
        session = DetectionSession(
            kernel,
            monitors=[allocator],
            config=DetectorConfig(interval=0.25, **QUIET),
            durable_dir=tmp_path / "state",
        )
        assert session.durable
        session.start()  # baselines before spawning
        kernel.run(until=5.0)
        session.stop()
        delivered = [
            (r.rule_id, r.detected_at) for r in session.delivered_reports
        ]
        assert delivered

        kernel2 = make_kernel()
        restarted = DetectionSession(
            kernel2,
            monitors=[build_allocator(kernel2)],
            config=DetectorConfig(interval=0.25, **QUIET),
            durable_dir=tmp_path / "state",
        )
        restarted.recover()
        assert [
            (r.rule_id, r.detected_at) for r in restarted.delivered_reports
        ] == delivered
        restarted.close()

    def test_getattr_passthrough_to_cluster(self):
        kernel = make_kernel()
        session = DetectionSession(kernel, monitors=[build_allocator(kernel)])
        assert session.checkpoints_run == 0
        assert [shard.index for shard in session.shards] == [0]
        with pytest.raises(AttributeError):
            session.no_such_attribute


class TestRejectedRegistration:
    """A registration that fails leaves the session as it was."""

    def test_rejected_monitor_does_not_move_the_cursor(self):
        kernel = make_kernel()
        session = DetectionSession(kernel, shards=2)
        first = session.register(build_allocator(kernel), label="a")
        with pytest.raises(ValueError, match="different kernel"):
            session.register(build_allocator(make_kernel()))
        second = session.register(build_allocator(kernel), label="b")
        assert session.shard_of(first) == 0
        assert session.shard_of(second) == 1

    def test_rejected_monitor_keeps_its_sink(self, tmp_path):
        kernel = make_kernel()
        session = DetectionSession(kernel, durable_dir=tmp_path)
        stranger = build_allocator(make_kernel())
        history = stranger.monitor.history
        with pytest.raises(ValueError, match="different kernel"):
            session.register(stranger)
        assert stranger.monitor.history is history
        assert not (tmp_path / "shard-0" / "wal").exists()
        session.close()

