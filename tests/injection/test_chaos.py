"""Chaos-hardening acceptance: the supervised engine must survive a full
seeded campaign of transient checkpoint failures, injected delays, history
drop-bursts and a sabotaged evaluator — without crashing the kernel,
without a single CONFIRMED report on the fault-free workload, and with the
broken monitor's breaker completing a full quarantine lifecycle.  Every
claim reads the campaign's exported registry or its gates.
"""

import pytest

from repro.detection import DetectionEngine, DetectorConfig
from repro.errors import InjectionError
from repro.history import HistoryDatabase
from repro.injection import (
    ChaosConfig,
    ChaosError,
    run_chaos_campaign,
    sabotage_entry,
)
from repro.apps import SingleResourceAllocator
from repro.kernel import RandomPolicy, SimKernel
from repro.observability.export import to_json_dict

HEALTHY = ("buffer", "allocator", "account")


@pytest.fixture(scope="module")
def seed0():
    return run_chaos_campaign(seed=0, rounds=60)


class TestCampaignAcceptance:
    def test_default_campaign_passes(self, seed0):
        assert seed0.passed, seed0.summary()

    def test_one_gate_per_conjunct(self, seed0):
        assert [result.gate.name for result in seed0.gates] == [
            "no-kernel-failure",
            "no-round-abandoned",
            "every-round-completed",
            "no-confirmed-report",
            "breaker-opened",
            "breaker-reclosed",
            "every-breaker-closed",
            *(f"{label}-checked-every-round" for label in HEALTHY),
            "checkpoint-failures-injected",
            "delays-injected",
            "events-dropped",
        ]

    def test_fifty_consecutive_checkpoints_no_crash_no_confirmed(self, seed0):
        value = seed0.registry.value
        assert value("repro_supervisor_completed_total") >= 50
        assert value("repro_supervisor_abandoned_total") == 0
        assert value("repro_campaign_kernel_failures") == 0
        assert seed0.notes == ()
        assert value("repro_reports_total", {"confidence": "confirmed"}) == 0

    def test_chaos_was_actually_injected(self, seed0):
        value = seed0.registry.value
        assert value("repro_campaign_checkpoint_failures") > 0
        assert value("repro_campaign_delays") > 0
        assert value("repro_campaign_dropped_events") > 0
        assert value("repro_campaign_evaluator_failures") > 0
        # Lossy windows really happened and were handled as degraded.
        assert value("repro_engine_degraded_windows_total") > 0

    def test_breaker_lifecycle_completes(self, seed0):
        value = seed0.registry.value
        assert value("repro_breaker_opened_total") >= 1
        assert value("repro_breaker_reclosed_total") >= 1
        # Every monitor, the broken one included, ends CLOSED.
        assert value("repro_engine_breakers", {"state": "closed"}) == 4
        # While quarantined, the broken monitor was skipped, not checked.
        skipped = "repro_monitor_checkpoints_skipped_total"
        assert value(skipped, {"monitor": "broken"}) > 0
        # The rest of the fleet never stopped checking.
        completed = value("repro_supervisor_completed_total")
        for label in HEALTHY:
            checked = value("repro_monitor_checkpoints_total", {"monitor": label})
            assert checked == completed
            assert value(skipped, {"monitor": label}) == 0

    def test_breaker_that_never_recloses_fails(self):
        result = run_chaos_campaign(seed=0, rounds=60, evaluator_failures=1000)
        failed = {r.gate.name for r in result.gates if r.status == "fail"}
        assert failed == {"breaker-reclosed", "every-breaker-closed"}
        assert not result.passed
        assert "FAIL" in result.summary()

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_other_seeds_also_pass(self, seed):
        result = run_chaos_campaign(seed=seed, rounds=60)
        assert result.passed, result.summary()

    def test_same_seed_is_reproducible(self):
        first = run_chaos_campaign(seed=3, rounds=60)
        second = run_chaos_campaign(seed=3, rounds=60)
        assert to_json_dict(first.registry, stable_only=True) == to_json_dict(
            second.registry, stable_only=True
        )
        assert [r.to_dict() for r in first.gates] == [
            r.to_dict() for r in second.gates
        ]

    def test_summary_mentions_verdict(self, seed0):
        summary = seed0.summary()
        assert summary.startswith("chaos campaign (seed=0, rounds=60): PASS")
        assert "13 passed, 0 failed of 13 gate(s)" in summary


class TestChaosConfig:
    def test_defaults_are_valid(self):
        ChaosConfig()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rounds", 0),
            ("interval", 0.0),
            ("checkpoint_failure_rate", 1.5),
            ("delay_rate", -0.1),
            ("drop_burst_rate", 2.0),
            ("burst_size", 0),
            ("evaluator_failures", 0),
            ("breaker_failure_threshold", 0),
            ("breaker_cooldown", 0.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(InjectionError):
            ChaosConfig(**{field: value})

    def test_config_and_overrides_are_mutually_exclusive(self):
        with pytest.raises(InjectionError):
            run_chaos_campaign(ChaosConfig(), seed=1)


class TestSabotage:
    def _entry(self):
        kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
        allocator = SingleResourceAllocator(
            kernel, history=HistoryDatabase()
        )
        engine = DetectionEngine(kernel, DetectorConfig(interval=1.0))
        return engine.register(allocator)

    def test_raises_n_times_then_heals(self):
        entry = self._entry()
        wrapper = sabotage_entry(entry, failures=2)
        for __ in range(2):
            with pytest.raises(ChaosError):
                entry.check()
        assert wrapper.raised == 2
        assert wrapper.healed
        assert entry.check() == []  # delegates to the real checker again

    def test_rejects_nonpositive_failure_count(self):
        entry = self._entry()
        with pytest.raises(InjectionError):
            sabotage_entry(entry, failures=0)
