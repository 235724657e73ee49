"""Subprocess side of the benchmark; run.py starts it with src/ on PYTHONPATH.

    worker.py setup              cold set-up probe: import, build, validate
    worker.py cold ARGV_JSON     one cold `python -m kanto` process, timed here
    worker.py warm ARGV_JSON     warm CLI calls, one per line read on stdin
    worker.py trace ARGV_JSON T N  untraced and traced calls, alternating, until
                                 time.monotonic() reaches T, at least N rounds

Every mode prints JSON lines on stdout.  Output files are hashed so run.py
can check each call against the one output it verified with the oracle.
"""

import sys
import time


def _setup() -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import kanto.cli  # noqa: F401
    from kanto import TensorKernel2D, construct_combination_kernel, validate_kernel

    t2 = time.perf_counter()
    # what every kanto subcommand does before its computation (CLI defaults)
    axis = construct_combination_kernel(3, (2.0, 3.0, 4.0))
    validate_kernel(TensorKernel2D(axis, axis), grid_n=32, tol=1e-8)
    # CLOCK_MONOTONIC on Linux, shared with run.py, which started the clock
    end = time.monotonic()
    kernel_s = time.perf_counter() - t2
    import json

    print(json.dumps({"end": end, "numpy_import_s": t1 - t0,
                      "import_s": t2 - t1, "kernel_s": kernel_s}))


def _cold(argv: list) -> None:
    """Time one CLI process and read its peak RSS from its rusage.

    Started from this small process rather than from run.py: Linux carries
    the parent's peak RSS into a child's ru_maxrss across fork and exec.
    """
    import json
    import os
    import subprocess

    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "kanto", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "rc": proc.returncode,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))


def _digest(path: str) -> str:
    import hashlib
    from pathlib import Path

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _warm(argv: list) -> None:
    import json

    from kanto.cli import main

    out = argv[argv.index("--out") + 1]
    rc = main(argv)  # warm-up call, not timed
    print(json.dumps({"ready": rc, "sha256": _digest(out)}), flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        rc = main(argv)
        dt = time.perf_counter() - t0
        print(json.dumps({"s": dt, "rc": rc, "sha256": _digest(out)}), flush=True)


def _window_terms(call) -> tuple[int, int]:
    """(point, cell) terms of one operator call, and those times quadrature nodes."""
    import numpy as np

    args = call.arguments
    grid, kernel = args["grid"], args["kernel"]
    t = grid.w * grid.points
    counts = []
    for axis, (lo, hi) in enumerate((kernel.support_x, kernel.support_y)):
        counts.append(np.floor(t[:, axis] - lo) - np.ceil(t[:, axis] - hi) + 1)
    terms = int((counts[0] * counts[1]).sum())
    q = args.get("quad_order")
    return terms, terms * (1 if q is None else q * q)


def _summarize(tracer, root) -> dict:
    """Per-layer totals of one traced call."""
    spans = tracer.spans
    apply = [s for s in spans if s.layer == "operators.apply"]
    sums = {
        "main_s": root.duration,
        "cli_self_s": root.self_s,
        "apply_s": sum(s.duration for s in apply),
        "apply_self_s": sum(s.self_s for s in apply),
        "apply_kernel_s": sum(s.kernel_s for s in apply),
        "apply_f_s": sum(s.f_s for s in apply),
        "kernel_s": sum(s.kernel_s for s in spans),
        "f_s": sum(s.f_s for s in spans),
        "read_s": sum(s.duration for s in spans if s.layer == "operators.read"),
        "grid_s": sum(s.duration for s in spans if s.layer == "operators.grid"),
        "validate_s": sum(s.duration for s in spans if s.layer == "kernel2d.validate"),
        "analysis_self_s": sum(s.self_s for s in spans if s.layer == "analysis"),
    }
    terms = [_window_terms(s.call) for s in apply]
    counts = {
        "points": sum(len(s.call.arguments["grid"].points) for s in apply),
        "kernel_calls": sum(s.kernel_calls for s in spans),
        "f_evals": sum(s.f_evals for s in spans),
        "apply_f_evals": sum(s.f_evals for s in apply),
        "window_terms": sum(t for t, _ in terms),
        "quad_terms": sum(q for _, q in terms),
    }
    return {"times": sums, "counts": counts}


def _trace(argv: list, deadline: float, min_rounds: int) -> None:
    import json
    from pathlib import Path

    import kanto.cli
    import tracer as tr

    out = argv[argv.index("--out") + 1]
    kanto.cli.main(argv)  # warm-up call, untraced
    spans_out = Path(out).with_suffix(".spans.json")
    rounds = 0
    while True:
        t_round = time.monotonic()
        record = {}
        for full in (False, True):
            tracer = tr.Tracer()
            undo = tr.install(tracer, full)
            try:
                rc = tracer.span("cli", kanto.cli.main)(argv)
            finally:
                tr.uninstall(undo)
            root = tracer.spans[-1]
            record["traced" if full else "untraced"] = {
                "rc": rc, "sha256": _digest(out), **_summarize(tracer, root)}
            if full:
                spans_out.write_text(json.dumps([s.to_dict() for s in tracer.spans]))
        print(json.dumps(record), flush=True)
        rounds += 1
        now = time.monotonic()
        if rounds >= min_rounds and deadline - now < 0.5 * (now - t_round):
            break


def main() -> None:
    mode = sys.argv[1]
    if mode == "setup":
        _setup()
    elif mode == "cold":
        import json

        _cold(json.loads(sys.argv[2]))
    elif mode == "warm":
        import json

        _warm(json.loads(sys.argv[2]))
    elif mode == "trace":
        import json

        _trace(json.loads(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
