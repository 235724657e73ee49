"""The scripts and the benchmark harness, run the way their docs say."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(*args, timeout=300):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.mark.parametrize("w", ["10", "20", "40"])
def test_bounds_audit_finds_no_violation(w):
    proc = run("scripts/bounds_audit.py", "--w", w)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "VIOLATION" not in proc.stdout


def test_benchmark_smoke_run():
    # fails here, not only in the benchmark, when a traced entry point or a
    # workload's command line stops working
    proc = run("perfbench/run.py", "--smoke", timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
