"""Time one benchmark workload's command line, called again and again in one process.

Each call is ``kanto.cli.main(argv)`` followed by a sha256 of its ``--out``
file, as the benchmark's warm calls are.  After one untimed call, prints
the median milliseconds of ``main`` per call, the minor page faults per
call (``resource.getrusage``, over calls and digests), the tracemalloc
peak of one further call, and the output's sha256.  The argv comes from
``perfbench/workloads.py``; the inputs are written to a temporary folder.

    PYTHONPATH=src python scripts/warm_calls.py image_gw --calls 200
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
        sha, times = digest(out), []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(args.calls):
            t0 = time.perf_counter()
            main(argv)
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
    print(f"minor_faults_per_call {faults / args.calls:.1f}")
    print(f"tracemalloc_peak_mb {peak / 2**20:.3f}")
    print(f"sha256 {sha}")


if __name__ == "__main__":
    run()
