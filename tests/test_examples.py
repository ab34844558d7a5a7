"""Every script under ``examples/`` runs to completion.

Each example is a self-contained end-to-end run on the deterministic sim
kernel; it exits 0 only when the faults it expects were (or were not)
found, so a nonzero exit is a regression in the program, not the script.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout[-2000:] + result.stderr[-2000:]
    assert result.returncode == 0, output
