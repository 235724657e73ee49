"""Time one benchmark workload's command line, called again and again in one process.

Each call is ``kanto.cli.main(argv)`` followed by a sha256 of its ``--out``
file, as the benchmark's warm calls are.  After one untimed call, prints
the median milliseconds of ``main`` per call, in wall-clock time and in
CPU time of the process (``time.process_time``) with its quartiles, the
minor page faults per call (``resource.getrusage``, over calls and
digests), the tracemalloc peak of one further call, and the output's
sha256.  The argv comes from ``perfbench/workloads.py``; the inputs are
written to a temporary folder.

    PYTHONPATH=src python scripts/warm_calls.py image_gw --calls 200

Wall-clock time on a shared host can move by half between runs minutes
apart, so compare CPU times.  To compare two checkouts, run them in
alternating rounds on one pinned core (``taskset -c 0``), from sibling
directories whose paths have the same length: the path's length alone
can shift the heap layout, and with it the minor faults and the time.
"""

import argparse
import hashlib
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

from kanto.cli import main  # noqa: E402


def digest(out: Path) -> str:
    return hashlib.sha256(out.read_bytes()).hexdigest()


def run() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("--calls", type=int, default=100, help="timed calls (default 100)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        load = workloads.make(args.workload, args.seed, Path(tmp), args.size)
        out = Path(tmp) / "out.csv"
        argv = [*load.argv, "--out", str(out)]
        if main(argv) != 0:  # warm-up
            raise SystemExit(f"kanto {' '.join(load.argv)} failed")
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
    print(f"workload {args.workload} seed {args.seed} size {args.size} calls {args.calls}")
    print(f"ms_per_call {1e3 * statistics.median(times):.3f}")
    q1, median, q3 = 1e3 * np.percentile(cpu, [25, 50, 75])
    print(f"cpu_ms_per_call {median:.3f}")
    print(f"cpu_ms_quartiles {q1:.3f} {q3:.3f}")
    print(f"minor_faults_per_call {faults / args.calls:.1f}")
    print(f"tracemalloc_peak_mb {peak / 2**20:.3f}")
    print(f"sha256 {sha}")


if __name__ == "__main__":
    run()
