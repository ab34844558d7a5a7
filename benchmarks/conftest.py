"""Shared configuration for the benchmark suite.

Every file in this directory regenerates one artefact of the paper's
evaluation (see DESIGN.md section 4 for the experiment index).  Run with::

    pytest benchmarks/ --benchmark-only

Full-resolution tables (all six checking intervals, more repeats) are
produced by the CLI benches::

    python -m repro overhead
    python -m repro coverage
"""

import pytest


@pytest.fixture(scope="session")
def campaign_outcomes():
    """Run the full 21-campaign robustness experiment once per session."""
    from repro.injection import run_all_campaigns

    return run_all_campaigns(seed=0)
