"""The committed stable metrics export: counts must not move silently.

``metrics_seed0_stable.json`` is the output of ``python -m repro metrics
--seed 0 --stable --json PATH`` (4 monitors, 2 shards).  The stable subset
drops wall-clock families, so a seeded sim run reproduces it byte for
byte; a change that moves a count on purpose regenerates the file.
"""

from pathlib import Path

import pytest

from repro.__main__ import main

GOLDEN = Path(__file__).with_name("metrics_seed0_stable.json")
REGENERATE = (
    "PYTHONPATH=src python -m repro metrics --seed 0 --stable --json "
    "tests/observability/metrics_seed0_stable.json"
)


def test_stable_export_matches_committed_golden_file(tmp_path, capsys):
    target = tmp_path / "metrics.json"
    argv = ["metrics", "--seed", "0", "--stable", "--json", str(target)]
    assert main(argv) == 0
    capsys.readouterr()  # the Prometheus text on stdout is not compared
    if target.read_bytes() != GOLDEN.read_bytes():
        pytest.fail(
            f"the stable metrics export differs from {GOLDEN.name}; if the "
            f"counts changed on purpose, regenerate it with:\n  {REGENERATE}"
        )
