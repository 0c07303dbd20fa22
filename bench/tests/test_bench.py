"""Self-tests of the benchmark: exact repetition per seed, and refusal without sources.

Run from the repository root:

    python3 -m pytest -q bench/tests

The undervolt case runs two full campaigns per benchmark run and takes about
a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"


def run_bench(workload: str, seed: int, cwd: Path = ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def traced_result(workload: str, seed: int) -> tuple[dict, dict]:
    done = run_bench(workload, seed)
    assert done.returncode == 0, done.stderr
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return details, result


@pytest.mark.parametrize("workload", ["bus_attacks", "firmware_chain", "undervolt"])
def test_one_seed_repeats_counts_and_digest(workload):
    first_details, first = traced_result(workload, 5)
    second_details, second = traced_result(workload, 5)
    for details, result in ((first_details, first), (second_details, second)):
        assert result["correct"] and result["failed"] == 0
        assert details["digest"] == details["untraced_digest"]

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio")}

    assert first_details["digest"] == second_details["digest"]
    assert first_details["exact_outputs"] == second_details["exact_outputs"]
    exact = counts(first)
    exact.pop("trace.overhead_ratio")
    exact.pop("cpu.sign_share")
    assert exact == {k: v for k, v in counts(second).items() if k in exact}


def test_seed_changes_the_inputs():
    first, _ = traced_result("firmware_chain", 5)
    other, _ = traced_result("firmware_chain", 6)
    assert first["digest"] != other["digest"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("bus_attacks", 1, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
