"""The engine's counter table: exports, totals and snapshots agree.

``COUNTERS`` in :mod:`repro.detection.engine` declares each detection
counter once.  These tests pin what the table promises: every counter
reads the same as an attribute and in the export, every engine and
per-monitor family in the export comes from the table, persisted counters
survive a crash and recovery, and no ``_total`` sample goes backwards
when a monitor leaves.
"""

import pytest

from repro.detection import DetectionSession, DetectorConfig
from repro.detection.engine import COUNTERS, ENGINE, MONITOR
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.observability.export import to_json_dict
from repro.workloads.scenarios import WorkloadSpec, build_fleet

CONFIG = DetectorConfig(interval=0.5, tmax=120.0, tio=120.0, tlimit=120.0)
SPEC = WorkloadSpec(processes=4, operations=30, think_time=0.05)


def build_session(shards, *, monitors=4, durable_dir=None, seed=3):
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    session = DetectionSession(
        kernel, config=CONFIG, shards=shards, durable_dir=durable_dir
    )
    fleet = build_fleet(kernel, monitors, SPEC)
    for run in fleet:
        session.register(run.monitor)
        run.spawn_all(kernel)
    return kernel, session


def run_session(shards, *, until=15.0, **kwargs):
    kernel, session = build_session(shards, **kwargs)
    session.start()
    kernel.run(until=until, max_steps=20_000_000)
    kernel.raise_failures()
    return session


def persisted_counters(session):
    """Every persisted table counter, keyed by owner and attribute."""
    values = {}
    for spec in COUNTERS:
        if not spec.persisted:
            continue
        if spec.scope == ENGINE:
            for shard in session.shards:
                key = (f"shard-{shard.index}", spec.attr)
                values[key] = getattr(shard.engine, spec.attr)
        else:
            for entry in session.entries:
                values[(entry.label, spec.attr)] = getattr(entry, spec.attr)
    return values


def total_samples(session):
    return {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
        for entry in to_json_dict(session.metrics())["metrics"]
        if entry["name"].endswith("_total")
    }


@pytest.mark.parametrize("shards", [1, 2])
class TestCounterTable:
    def test_attributes_equal_exported_values(self, shards):
        session = run_session(shards)
        session.stop()
        registry = session.metrics()
        for spec in COUNTERS:
            if spec.scope == MONITOR:
                for entry in session.entries:
                    assert getattr(entry, spec.attr) == registry.value(
                        spec.family, {"monitor": entry.label}
                    ), (spec.family, entry.label)
            else:
                assert getattr(session, spec.attr) == registry.value(
                    spec.family
                ), spec.family
        assert session.evaluations_run > 0
        assert session.incremental_hits > 0

    def test_engine_and_monitor_families_come_from_the_table(self, shards):
        session = run_session(shards)
        session.stop()
        exported = {
            family.name
            for family in session.metrics().collect()
            if family.name.startswith("repro_monitor_")
            or (
                family.name.startswith("repro_engine_")
                and family.name.endswith("_total")
            )
        }
        assert exported == {spec.family for spec in COUNTERS}

    def test_persisted_counters_survive_recovery(self, shards, tmp_path):
        state = tmp_path / "state"
        session = run_session(shards, durable_dir=state)
        # Stop pacing between checkpoints, with no clean shutdown: no
        # final checkpoint or snapshot before the crash.
        for engine in session.engines:
            engine.stop()
        before = persisted_counters(session)
        assert before[("shard-0", "evaluations_run")] > 0
        session.close()

        __, rebuilt = build_session(shards, durable_dir=state)
        rebuilt.recover()
        assert persisted_counters(rebuilt) == before
        rebuilt.close()


class TestUnregister:
    def test_no_total_goes_backwards_when_a_monitor_leaves(self):
        session = run_session(1, monitors=3)
        leaving = session.entries[1]
        assert leaving.incremental_hits > 0 and leaving.staged_flushes > 0
        before = total_samples(session)
        session.unregister(leaving)
        after = total_samples(session)
        shrunk = {
            key: (before[key], value)
            for key, value in after.items()
            if key in before and value < before[key]
        }
        assert shrunk == {}
        # The leaving monitor's own per-monitor series go with it.
        assert not any(
            ("monitor", leaving.label) in labels for __, labels in after
        )
        session.stop()

    def test_wal_totals_survive_when_a_durable_monitor_leaves(self, tmp_path):
        session = run_session(1, monitors=3, durable_dir=tmp_path / "state")

        def wal_totals():
            registry = session.metrics()
            totals = {
                key: value
                for key, value in total_samples(session).items()
                if key[0].startswith("repro_wal_")
            }
            for phase in ("wal_append", "wal_fsync"):
                totals[phase] = registry.histogram_count(
                    "repro_phase_latency_seconds", {"phase": phase}
                )
            return totals

        before = wal_totals()
        assert before[("repro_wal_bytes_written_total", (("shard", "0"),))] > 0
        assert before["wal_append"] > 0
        session.unregister(session.entries[1])
        after = wal_totals()
        assert after.keys() == before.keys()
        shrunk = {
            key: (before[key], value)
            for key, value in after.items()
            if value < before[key]
        }
        assert shrunk == {}
        session.stop()
        session.close()


class TestDurableShardSupervisor:
    def test_snapshot_persists_the_pacing_supervisor(self, tmp_path):
        state = tmp_path / "state"
        session = run_session(2, monitors=2, durable_dir=state)
        session.stop()
        session.close()

        __, rebuilt = build_session(2, monitors=2, durable_dir=state)
        rebuilt.recover()
        registry = rebuilt.metrics()
        for shard in rebuilt.shards:
            assert shard.durable.supervisor is shard.supervisor
            payload, __ = shard.durable.snapshots.load_latest()
            # [format, [completed, abandoned, monitors], engine counters]
            __, (stored, __, __), __ = payload
            assert stored > 0
            assert (
                registry.value(
                    "repro_supervisor_completed_total",
                    {"shard": str(shard.index)},
                )
                == stored
            )
        rebuilt.close()
