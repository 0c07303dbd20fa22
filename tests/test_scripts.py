"""The experiment scripts run as programs and print what their golden files pin."""

import os
import subprocess
import sys
from pathlib import Path

import pmbus_sim

ROOT = Path(__file__).parents[1]
DEMO = ROOT / "scripts" / "overvolt_demo.py"


def run_demo(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(pmbus_sim.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, str(DEMO), *args], env=env, capture_output=True, text=True
    )


def test_overvolt_demo_prints_its_golden_table_and_takes_no_options():
    out = run_demo()
    assert out.returncode == 0, out.stderr
    assert out.stdout == (ROOT / "tests" / "golden" / "overvolt_demo.txt").read_text()
    # the cap comes from a policy document (attack overvolt --filter-policy), not a flag
    refused = run_demo("--cap-mv", "1400")
    assert refused.returncode == 2
    assert "unrecognized arguments: --cap-mv 1400" in refused.stderr
