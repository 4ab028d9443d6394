"""Smoke test of the example scripts: they run, and their seeded output is
byte-identical from run to run; and README's Python examples run."""

import os
import re
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


def test_readme_python_blocks_run_in_order(capsys):
    # one namespace, as a reader pastes them: a later block uses the names an earlier one made
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    namespace = {"__name__": "readme"}
    for block in re.finditer(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S):
        line = readme.count("\n", 0, block.start(1))  # so a traceback names the README line
        exec(compile("\n" * line + block[1], str(ROOT / "README.md"), "exec"), namespace)
    # 237.75 W (cpu 200, mem 37.5, io 0.2, net 0.05) for one hour, times PUE 1.5 and 0.4 kg/kWh
    assert namespace["report"].total_kg_co2e == pytest.approx(0.23775 * 1.5 * 0.4, rel=1e-12)
    assert capsys.readouterr().out == f"{namespace['report'].total_kg_co2e}\n"
    assert namespace["idle_j"] == 0.0
