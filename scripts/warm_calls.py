"""Time one benchmark workload's command line, called again and again in one process.

Each call is ``kanto.cli.main(argv)`` followed by a sha256 of its ``--out``
file, as the benchmark's warm calls are.  Prints the CPU milliseconds of
the first call, which also does the once-per-process work (the argument
parser, the kernel, lazily imported modules) and is timed apart; then the
median milliseconds of ``main`` per call, in wall-clock time and in CPU
time of the process (``time.process_time``) with its quartiles, the minor
page faults per call (``resource.getrusage``, over calls and digests), the
tracemalloc peak of one further call, and the output's sha256.  The argv
comes from ``perfbench/workloads.py``; the inputs are written to a
temporary folder.

    PYTHONPATH=src python scripts/warm_calls.py image_gw --calls 200

Wall-clock time on a shared host can move by half between runs minutes
apart, so compare CPU times.  To compare two checkouts, give the other
one's root to ``--against``:

    taskset -c 0 python scripts/warm_calls.py catalog_sw --calls 40 --against ../other

The argv then runs in two long-lived child processes, one on this tree's
``src/`` and one on the other's, in rounds of one call each, the side that
goes first switching each round.  Both outputs must have the same sha256.
The report gives each side's first-call and median CPU milliseconds, the
median per-round ratio (this tree over the other) and the rounds each side
won.
Run both trees from sibling directories whose paths have the same length:
the path's length alone can shift the heap layout, and with it the minor
faults and the time.
"""

import argparse
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

from kanto.cli import main  # noqa: E402

# one line per call read from stdin: CPU seconds of main, and the digest
CHILD = """\
import hashlib, sys, time
import kanto.cli
argv = sys.argv[1:]
out = argv[argv.index("--out") + 1]
print(kanto.cli.__file__, flush=True)
for _ in sys.stdin:
    c0 = time.process_time()
    code = kanto.cli.main(argv)
    cpu = time.process_time() - c0
    with open(out, "rb") as f:
        print(cpu, code, hashlib.sha256(f.read()).hexdigest(), flush=True)
"""


def digest(out: Path) -> str:
    return hashlib.sha256(out.read_bytes()).hexdigest()


class Side:
    """A child process that runs the argv on one tree's ``src/``, a call per request."""

    def __init__(self, root: Path, argv: list, out: Path):
        self.root, src = root, root.resolve() / "src"
        path = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, *argv, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        loaded = Path(self.proc.stdout.readline().strip())
        if not loaded.is_relative_to(src):
            raise SystemExit(f"{root} has no kanto under src/; loaded {loaded}")

    def call(self) -> tuple[float, str]:
        """CPU seconds of one call of main, and the output's sha256."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()  # empty if the child died
        if reply[1:2] != ["0"]:
            raise SystemExit(f"kanto {' '.join(self.proc.args[3:])} failed on {self.root}")
        return float(reply[0]), reply[2]


def against(other: Path, argv: list, tmp: Path, rounds: int) -> None:
    """Alternate single calls on this tree and on ``other``; print the comparison."""
    sides = [Side(root, argv, tmp / f"out{i}.csv") for i, root in enumerate((ROOT, other))]
    try:
        first = [side.call() for side in sides]  # warm-up
        sha = {s for _, s in first}
        cpu = [[], []]
        for r in range(rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                t, s = sides[i].call()
                cpu[i].append(t)
                sha.add(s)
    finally:
        for side in sides:
            side.proc.stdin.close()
            side.proc.wait(timeout=60)
    if len(sha) != 1:
        raise SystemExit("the two trees' outputs differ")
    ratio = [a / b for a, b in zip(*cpu)]
    print(f"against {other.resolve()}")
    print("first_call_cpu_ms " + " ".join(f"{1e3 * t:.3f}" for t, _ in first))
    print("cpu_ms_per_call " + " ".join(f"{1e3 * statistics.median(c):.3f}" for c in cpu))
    print(f"cpu_ratio_median {statistics.median(ratio):.4f}")
    print(f"rounds_won {sum(a < b for a, b in zip(*cpu))} {sum(b < a for a, b in zip(*cpu))}")
    print(f"sha256 {sha.pop()}")


def run() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("--calls", type=int, default=100, help="timed calls (default 100)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument(
        "--against", type=Path, help="another checkout's root: alternate calls with it"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        load = workloads.make(args.workload, args.seed, Path(tmp), args.size)
        print(f"workload {args.workload} seed {args.seed} size {args.size} calls {args.calls}")
        if args.against:
            against(args.against, load.argv, Path(tmp), args.calls)
            return
        out = Path(tmp) / "out.csv"
        argv = [*load.argv, "--out", str(out)]
        c0 = time.process_time()
        if main(argv) != 0:  # warm-up
            raise SystemExit(f"kanto {' '.join(load.argv)} failed")
        first = time.process_time() - c0
        sha, times, cpu = digest(out), [], []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(args.calls):
            t0, c0 = time.perf_counter(), time.process_time()
            main(argv)
            cpu.append(time.process_time() - c0)
            times.append(time.perf_counter() - t0)
            if digest(out) != sha:
                raise SystemExit("the output changed between calls")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        tracemalloc.start()
        main(argv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    print(f"first_call_cpu_ms {1e3 * first:.3f}")
    print(f"ms_per_call {1e3 * statistics.median(times):.3f}")
    q1, median, q3 = 1e3 * np.percentile(cpu, [25, 50, 75])
    print(f"cpu_ms_per_call {median:.3f}")
    print(f"cpu_ms_quartiles {q1:.3f} {q3:.3f}")
    print(f"minor_faults_per_call {faults / args.calls:.1f}")
    print(f"tracemalloc_peak_mb {peak / 2**20:.3f}")
    print(f"sha256 {sha}")


if __name__ == "__main__":
    run()
