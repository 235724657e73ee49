"""The scripts and the benchmark harness, run the way their docs say."""

import hashlib
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


# sha256 of each table of scripts/convergence_experiment.py with its
# defaults; the ridge probe passes the bare np.sin, and xy runs under gbs
CONVERGENCE_TABLES = {
    "gaussian_gw.csv": "e3dae55cf8afe7d055ecd9175874223e30217115f89c6283dd58c73b87b026a7",
    "ridge_sin_sw.csv": "6520ba851cf3d148825011fc6b24f911d081b7c9c380aff50c47817b83ca234e",
    "sin_x_cos_y_gw.csv": "06a6b8a1a3db39cc2f3f6b737f9a90ea0df0a53d12dc3385db889211cd37c593",
    "sin_x_cos_y_sw.csv": "1e9f7d6a9cf76b1381dc6fe9722d1093b51301b983b67e1c42b02a9de0763938",
    "x2_sw.csv": "48a678867bf6dfc6391ec6c8e1dd646ccf0162dae425596ed4fd8a386149ce26",
    "x_plus_y_sw.csv": "4cbb259e16975f0c5d7d84b3b6ad72ca53c979298be593104b96efa679dc9959",
    "xy_gbs.csv": "98132100adbe5bc9f409463b036bce5cd7deb3b74b5da7a1c0a2c44e16e11030",
}


def test_convergence_experiment_tables(tmp_path):
    proc = run("scripts/convergence_experiment.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == CONVERGENCE_TABLES


def test_benchmark_smoke_run():
    # fails here, not only in the benchmark, when a traced entry point or a
    # workload's command line stops working
    proc = run("perfbench/run.py", "--smoke", timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_warm_calls_reports_one_workload():
    # three warm calls of the smoke-size catalog workload: the report's
    # lines, and the output digest that the golden test pins
    proc = run("scripts/warm_calls.py", "catalog_sw", "--calls", "3", "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = dict(line.split(" ", 1) for line in proc.stdout.strip().splitlines())
    assert report["workload"] == "catalog_sw seed 1 size smoke calls 3"
    assert float(report["ms_per_call"]) > 0
    q1, q3 = map(float, report["cpu_ms_quartiles"].split())
    assert 0 <= q1 <= float(report["cpu_ms_per_call"]) <= q3
    assert float(report["minor_faults_per_call"]) >= 0
    assert float(report["tracemalloc_peak_mb"]) > 0
    assert report["sha256"] == (
        "1b43fd32f17d619b6ff8d8b0066ea245ec4648800a97b9a9acc35289b180e696"
    )
