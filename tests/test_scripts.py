"""Smoke test of the example scripts: they run, and their seeded output is
byte-identical from run to run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["run_synthetic_day.py", "sweep_allocation_sensitivity.py"])
def test_script_runs_deterministically(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script)],
            env=env, capture_output=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode()
        outputs.append(result.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
