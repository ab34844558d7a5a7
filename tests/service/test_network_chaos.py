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
    value = result.registry.value
    # The campaign exercised what it claims to exercise.
    assert value("repro_campaign_server_crashes") == 1
    assert value("repro_campaign_reconnects") > 0
    assert value("repro_campaign_client_errors") == 0
    # The notes are the fault timeline alone: no error, no failure.
    assert any(note.endswith(": server-crash") for note in result.notes)
    assert all(note.startswith("fault at ") for note in result.notes)
    assert value("repro_campaign_journal_duplicate_keys") == 0
    # Loss is never silent: every window evaluated lossy took the degraded
    # path, so no report from a lossy window claims CONFIRMED.
    assert value("repro_engine_degraded_windows_total") == value(
        "repro_service_lossy_windows_total"
    )
    assert "PASS" in result.summary()


def test_campaign_without_faults_is_clean():
    config = NetworkChaosConfig(
        seed=5, clients=2, rounds=12, operations=24, drop_rate=0.0,
        truncate_rate=0.0, stall_rate=0.0, crash_at=None,
    )
    result = run_network_chaos_campaign(config)
    assert result.passed, result.summary()
    value = result.registry.value
    assert value("repro_service_lossy_windows_total") == 0
    assert value("repro_campaign_reconnects") == 0
    assert value("repro_campaign_journal_reports") > 0
    # Without a drop or a crash there is nothing to reconnect from, so
    # neither fault's gate is part of the verdict.
    names = {gate.gate.name for gate in result.gates}
    assert not names & {"clients-reconnected", "server-crashed"}
