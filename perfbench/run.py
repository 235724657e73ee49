#!/usr/bin/env python3
"""kanto benchmark: three seeded CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload image_gw --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The package is used from ``src/`` as is; no
build step.  Every child runs single-process with ``KANTO_THREADS`` unset.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
rounds of one cold ``python -m kanto`` process, one warm ``main(argv)``
call in a long-lived worker and a few cold set-up probes, repeated until
``--seconds`` have passed; each metric is a median over its samples.  The
run is pinned to one CPU and every timing sample is scaled to a reference
machine speed (see _SpeedGauge).  ``--trace 1`` runs the per-layer
measurement: alternating untraced and traced warm calls in one worker (see
tracer.py), plus set-up probes for the import split.

Every output is checked (check.py).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric with its unit and sample count, and the
full record (seed, environment, samples) is written to
``.perfbench_work/results/``.  ``--smoke`` runs each workload once at a
tiny size in both modes and asserts that every metric in BENCHMARK.json is
emitted with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "points/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "kernel1d.calls": "count",
    "kernel1d.us_per_point": "us",
    "kernel1d.apply_s": "s",
    "functions.f_evals_per_point": "evals/point",
    "functions.f_s": "s",
    "functions.apply_s": "s",
    "operators.apply_s": "s",
    "operators.self_s": "s",
    "operators.self_us_per_point": "us",
    "operators.window_terms": "count",
    "operators.cell_reuse_ratio": "ratio",
    "operators.read_s": "s",
    "operators.grid_s": "s",
    "kernel2d.validate_s": "s",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "setup.import_s": "s",
    "setup.numpy_import_s": "s",
    "trace.overhead": "ratio",
    "trace.overhead_s": "s",
    "trace.apply_excess_s": "s",
}

MIN_ROUNDS = 3
# Calibration loop: its time on an uncontended core of the reference
# machine (2-core Xeon VM) defines "reference speed"; see _SpeedGauge.
CAL_LOOPS = 20_000
CAL_REF_S = 0.1
SETUP_PROBES_PER_ROUND = 3
IMPORT_PROBES = 8
CHILD_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a wrong program output)."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KANTO_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "kanto").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kanto_threads": "unset (1 thread)",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _spread(xs) -> dict:
    if len(xs) < 2:
        return {"n": len(xs), "q1": xs[0], "q3": xs[0]}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "q1": q1, "q3": q3}


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@contextlib.contextmanager
def _child(mode: str, *args: str, timeout: float = CHILD_TIMEOUT_S, **popen):
    """Start ``worker.py MODE ARGS`` in its own process group and always reap it.

    The group (the worker and any CLI process it started) is killed when it
    outlives ``timeout`` or when the block raises.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), mode, *args],
                            env=_child_env(), cwd=ROOT, text=True,
                            start_new_session=True, **popen)
    timer = threading.Timer(timeout, _kill_group, (proc,))
    timer.daemon = True
    timer.start()
    try:
        yield proc
    except BaseException:
        _kill_group(proc)
        raise
    finally:
        timer.cancel()
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.wait()


def _cold_cli(argv: list, log: Path) -> dict:
    """Wall time, exit code and peak RSS of one cold CLI process."""
    with open(log, "wb") as err, _child("cold", json.dumps(argv), stdin=subprocess.DEVNULL,
                                        stdout=subprocess.PIPE, stderr=err) as proc:
        out, _ = proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"cold launcher exited with {proc.returncode}")
    return json.loads(out)


def _setup_probe() -> dict:
    """One cold set-up: interpreter start to a validated default kernel."""
    t0 = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
    with _child("setup", stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        out, _ = proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    got = json.loads(out.splitlines()[-1])
    got["setup_s"] = got["end"] - t0
    return got


def _calibrate() -> float:
    """Time a fixed mix of small numpy calls and scalar Python, as kanto runs."""
    import math

    import numpy as np

    a = np.arange(8.0)
    acc = 0.0
    cache = {}
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        acc += float(np.maximum(a - i * 1e-6, 0.0).sum())
        for j in range(8):
            cache[(i & 255, j)] = acc + math.sqrt(i * 0.5 + j)
    return time.perf_counter() - t0


class _SpeedGauge:
    """Scales timings to the reference speed of the machine.

    On a shared host the same code runs up to 40% slower in phases that last
    from seconds to minutes.  The calibration loop runs between samples,
    never during one; a sample (or a group of set-up probes) is scaled by
    CAL_REF_S over the mean of the calibration times just before and after.
    """

    def __init__(self):
        self.times = [_calibrate()]

    def factor(self) -> float:
        """Factor for the sample that ran since the previous calibration."""
        self.times.append(_calibrate())
        return CAL_REF_S / (0.5 * (self.times[-2] + self.times[-1]))


class _Verifier:
    """Checks outputs with the oracle once per distinct content."""

    def __init__(self, wl, out: Path):
        self.wl = wl
        self.out = out
        self.verdicts: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, rc: int, sha: str | None = None) -> None:
        """Count one invocation; ``sha`` is the digest its caller saw."""
        self.attempted += 1
        problems = [f"exit code {rc}"] if rc != 0 else self._verdict(sha)
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)

    def _verdict(self, sha: str | None) -> list[str]:
        data = self.out.read_bytes() if self.out.exists() else b""
        have = hashlib.sha256(data).hexdigest()
        if sha is not None and sha != have:
            return ["output file changed after the call"]
        if have not in self.verdicts:
            from check import check_output

            self.verdicts[have] = check_output(self.wl, data.decode())
        return self.verdicts[have]


def _measure_untraced(wl, wdir: Path, seconds: float, min_rounds: int):
    out = wdir / "out.csv"
    argv = [*wl.argv, "--out", str(out)]
    verifier = _Verifier(wl, out)
    samples = {"wall_s": [], "points_per_s": [], "setup_s": [], "peak_rss_mb": []}
    raw = {"wall_s": [], "warm_s": [], "setup_s": []}
    deadline = time.perf_counter() + seconds
    warm_out = wdir / "warm.csv"
    warm_check = _Verifier(wl, warm_out)
    with _child("warm", json.dumps([*wl.argv, "--out", str(warm_out)]),
                timeout=seconds + CHILD_TIMEOUT_S,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE) as warm:
        # the warm-up call also compiles bytecode on a fresh checkout
        if not warm.stdout.readline():
            raise BenchError("warm worker ended before its warm-up call")
        gauge = _SpeedGauge()
        rounds = 0
        while True:
            t_round = time.perf_counter()
            cold = _cold_cli(argv, wdir / "stderr.log")
            verifier.record(cold["rc"])
            raw["wall_s"].append(cold["wall_s"])
            samples["wall_s"].append(cold["wall_s"] * gauge.factor())
            samples["peak_rss_mb"].append(cold["peak_rss_mb"])
            warm.stdin.write("go\n")
            warm.stdin.flush()
            line = warm.stdout.readline()
            if not line:
                raise BenchError("warm worker ended unexpectedly")
            got = json.loads(line)
            warm_check.record(got["rc"], got["sha256"])
            raw["warm_s"].append(got["s"])
            samples["points_per_s"].append(wl.points / (got["s"] * gauge.factor()))
            probes = [_setup_probe()["setup_s"] for _ in range(SETUP_PROBES_PER_ROUND)]
            raw["setup_s"] += probes
            factor = gauge.factor()  # probes are short: one bracket for all
            samples["setup_s"] += [setup_s * factor for setup_s in probes]
            rounds += 1
            now = time.perf_counter()
            # another round if it would end at most half a round past the deadline
            if rounds >= min_rounds and deadline - now < 0.5 * (now - t_round):
                break
    attempted = verifier.attempted + warm_check.attempted
    failed = verifier.failed + warm_check.failed
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["ok_frac"] = (attempted - failed) / attempted
    spreads = {k: _spread(v) for k, v in samples.items()}
    problems = verifier.problems + warm_check.problems
    detail = {"samples": samples, "spreads": spreads, "raw": raw,
              "raw_medians": {k: statistics.median(v) for k, v in raw.items()},
              "calibration_s": gauge.times}
    return metrics, attempted, failed, problems, detail


def _measure_traced(wl, wdir: Path, seconds: float, min_rounds: int):
    deadline = time.monotonic() + seconds  # CLOCK_MONOTONIC, shared with the worker
    _setup_probe()  # compiles bytecode on a fresh checkout; not a sample
    probes = [_setup_probe() for _ in range(IMPORT_PROBES)]
    out = wdir / "trace.csv"
    with _child("trace", json.dumps([*wl.argv, "--out", str(out)]), repr(deadline),
                str(min_rounds), timeout=seconds + CHILD_TIMEOUT_S,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        lines, _ = proc.communicate()
    rounds = [json.loads(line) for line in lines.splitlines() if line.strip()]
    if proc.returncode != 0 or not rounds:
        raise BenchError(f"trace worker exited with {proc.returncode}")

    verifier = _Verifier(wl, out)
    for r in rounds:
        for side in ("untraced", "traced"):
            verifier.record(r[side]["rc"], r[side]["sha256"])
    problems = list(verifier.problems)
    counts = rounds[0]["traced"]["counts"]
    if any(r["traced"]["counts"] != counts for r in rounds):
        problems.append("traced counts differ between identical calls")

    def med(side, key):
        return statistics.median([r[side]["times"][key] for r in rounds])

    points = wl.points
    if counts["points"] != points:
        problems.append(f"tracer saw {counts['points']} of {points} evaluation points")

    def paired(fn):
        """Median over rounds of fn(traced times, untraced times) of one round."""
        return statistics.median(fn(r["traced"]["times"], r["untraced"]["times"])
                                 for r in rounds)

    quad_terms = counts["quad_terms"]
    metrics = {
        "kernel1d.calls": counts["kernel_calls"],
        "kernel1d.us_per_point": 1e6 * med("traced", "kernel_s") / points,
        "kernel1d.apply_s": med("traced", "apply_kernel_s"),
        "functions.f_evals_per_point": counts["f_evals"] / points,
        "functions.f_s": med("traced", "f_s"),
        "functions.apply_s": med("traced", "apply_f_s"),
        "operators.apply_s": med("untraced", "apply_s"),
        "operators.self_s": med("traced", "apply_self_s"),
        "operators.self_us_per_point": 1e6 * med("traced", "apply_self_s") / points,
        "operators.window_terms": counts["window_terms"],
        "operators.cell_reuse_ratio": 1.0 - counts["apply_f_evals"] / max(quad_terms, 1),
        "operators.read_s": med("traced", "read_s"),
        "operators.grid_s": med("traced", "grid_s"),
        "kernel2d.validate_s": med("traced", "validate_s"),
        "analysis.self_s": med("traced", "analysis_self_s"),
        "cli.self_s": med("traced", "cli_self_s"),
        "cli.out_bytes": out.stat().st_size if out.exists() else 0,
        "setup.import_s": statistics.median([p["import_s"] for p in probes]),
        "setup.numpy_import_s": statistics.median([p["numpy_import_s"] for p in probes]),
        "trace.overhead": paired(lambda t, u: t["main_s"] / u["main_s"]),
        "trace.overhead_s": paired(lambda t, u: t["main_s"] - u["main_s"]),
        "trace.apply_excess_s": paired(lambda t, u: t["apply_kernel_s"] + t["apply_f_s"]
                                       + t["apply_self_s"] - u["apply_s"]),
    }
    detail = {"rounds": rounds, "setup_probes": probes, "counts": counts}
    return metrics, verifier.attempted, verifier.failed, problems, detail


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str = "full", min_rounds: int = MIN_ROUNDS) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable lines."""
    import workloads

    wdir = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    wl = workloads.make(name, seed, wdir, size)
    measure = _measure_traced if trace else _measure_untraced
    metrics, attempted, failed, problems, detail = measure(wl, wdir, seconds, min_rounds)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    env = _environment()
    record = {"workload": name, "seed": seed, "size": size, "trace": trace,
              "seconds": seconds, "argv": list(wl.argv), "points": wl.points,
              "environment": env, "problems": problems, "result": result, **detail}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{name}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    lines = [f"workload {name} seed {seed} trace {trace}: {wl.points} points, "
             f"kanto {' '.join(wl.argv)}",
             "environment " + json.dumps(env)]
    spreads = detail.get("spreads", {})
    for k, unit in units.items():
        s = spreads.get(k)
        extra = f"  (n={s['n']}, q1={s['q1']:.6g}, q3={s['q3']:.6g})" if s else ""
        lines.append(f"  {k:30s} {metrics[k]:>14.6g} {unit}{extra}")
    if not trace:
        lines.append(f"  {'failed_frac':30s} {failed / attempted:>14.6g} ratio")
    else:
        lines.append(f"  layer sum (kernel1d + functions + operators self) exceeds untraced "
                     f"apply by {metrics['trace.apply_excess_s']:.4g} s; "
                     f"tracing overhead {metrics['trace.overhead_s']:.4g} s")
    lines += [f"  problem: {p}" for p in problems]
    lines.append(f"record {record_path.relative_to(ROOT)}")
    return result, lines


def _smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_workload(name, 0, 0.0, trace, size="smoke", min_rounds=1)
            print("\n".join(lines))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                print(f"FAIL {name} trace {trace}: metrics {got} != BENCHMARK.json {want}")
                ok = False
            if not result["correct"]:
                print(f"FAIL {name} trace {trace}: output check failed")
                ok = False
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a tiny size in both modes")
    args = parser.parse_args()
    if not (SRC / "kanto" / "__init__.py").is_file():
        print(f"error: no kanto package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One core for the benchmark and every child: the calibration loop then
    # runs where the samples run, and the scheduler cannot move a sample
    # between cores of different momentary speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still reaps its children (see _child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.smoke:
            return _smoke()
        import workloads

        if args.workload not in workloads.NAMES:
            parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
