"""The benchmark command, run to its result on a fresh copy of the sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_declared_command(tmp_path, *options) -> tuple[dict, dict]:
    """The declared command from a checkout that holds only what it reads:
    the package, the bench scripts and the declaration.  Returns the
    declaration and the JSON result line."""
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    declared = json.loads((tmp_path / "BENCHMARK.json").read_text())
    result = subprocess.run(
        [sys.executable, *declared["command"][1:], *options],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    return declared, last


def test_the_benchmark_command_runs_to_a_correct_result(tmp_path):
    declared, last = _run_declared_command(
        tmp_path, "--workload", "pipeline_d2", "--seed", "11", "--seconds", "1", "--trace", "0"
    )
    assert set(last["metrics"]) == {metric["name"] for metric in declared["end_to_end"]}


def test_a_traced_benchmark_run_ends_correct(tmp_path):
    # The layer trace wraps every binding of the package; a wrapper that broke
    # a call or a count that differed between batches fails the run.
    declared, last = _run_declared_command(
        tmp_path, "--workload", "mutants", "--seed", "11", "--seconds", "1", "--trace", "1"
    )
    assert set(last["metrics"]) == {metric["name"] for metric in declared["per_layer"]}
    # a mismatch certificate carries its witness face's bodies, not the family:
    # a batch's 12 certificates took 131,869 bytes when each embedded its family
    assert last["metrics"]["certificates.cert_bytes"]["value"] < 40_000
