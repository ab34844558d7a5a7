"""The seeded network-fault campaign: end-to-end acceptance checks."""

import pytest

from repro.injection.network import (
    NetworkChaosConfig,
    run_network_chaos_campaign,
)


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkChaosConfig(clients=0)
    with pytest.raises(ValueError):
        NetworkChaosConfig(drop_rate=1.5)
    with pytest.raises(ValueError):
        NetworkChaosConfig(crash_at=99 / 20, rounds=20)


def test_campaign_passes_with_full_fault_menu():
    config = NetworkChaosConfig(
        seed=2, clients=2, rounds=18, operations=24, crash_at=8 / 18,
        crash_outage=10.0,
    )
    result = run_network_chaos_campaign(config)
    assert result.passed, result.summary()
    # The campaign exercised what it claims to exercise.
    assert result.server_crashes == 1
    assert result.reconnects > 0
    assert not result.client_errors
    assert result.duplicate_journal_keys == 0
    # Loss is never silent: every lossy window was evaluated degraded,
    # and no report from a lossy window claims CONFIRMED.
    assert result.degraded_windows == result.lossy_windows
    assert result.confirmed_from_lossy == 0
    assert "PASS" in result.summary()


def test_campaign_without_faults_is_clean():
    config = NetworkChaosConfig(
        seed=5, clients=2, rounds=12, operations=24, drop_rate=0.0,
        truncate_rate=0.0, stall_rate=0.0, crash_at=None,
    )
    result = run_network_chaos_campaign(config)
    assert result.passed, result.summary()
    assert result.lossy_windows == 0
    assert result.reconnects == 0
    assert result.delivered_reports > 0
