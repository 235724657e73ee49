"""The golden CLI digests under a narrower numpy CPU dispatch.

numpy picks its SIMD loops at import, and ``NPY_DISABLE_CPU_FEATURES``
turns the wider ones off for one process.  Each case reruns
``tests/test_cli_golden.py`` in a child pytest with one tier of dispatch
turned off, AVX-512 or AVX2 and above, and pins which digests change:
exactly the four of output built from the catalog's ``gaussian``, whose
``np.exp`` rounds differently on the narrower loops.  That keeps the known
defect in sight and holds every other digest to its bytes.  The features
turned off are the host's own; a tier the host does not have, or that
numpy does not turn off, is skipped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "tests/test_cli_golden.py"
# the digests of output built from gaussian
GAUSSIAN = {
    "test_readme_example[reconstruct_csv]",
    "test_lattice_csv_writer",
    "test_benchmark_workload_at_smoke_size[catalog_sw]",
    "test_benchmark_workload_at_full_size[catalog_sw]",
}


def avx512(name: str) -> bool:
    return name == "X86_V4" or name.startswith("AVX512")


TIERS = {
    "avx512": avx512,
    "avx2_and_up": lambda name: avx512(name) or name in ("X86_V3", "AVX2", "FMA3"),
}

# prints the dispatch targets that numpy uses in a process
PROBE = """
try:
    from numpy._core import _multiarray_umath as m
except ImportError:
    from numpy.core import _multiarray_umath as m
print(' '.join(f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f)))
"""


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_golden_digests_under_narrower_dispatch(tier):
    features = [
        name
        for name, on in umath.__cpu_features__.items()
        if on and TIERS[tier](name) and name not in umath.__cpu_baseline__
    ]
    targets = set(features) & set(umath.__cpu_dispatch__)
    if not targets:
        pytest.skip(f"numpy dispatches to no {tier} target on this host")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features)}
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    if probe.returncode != 0 or targets & set(probe.stdout.split()):
        pytest.skip(f"numpy did not turn off {sorted(targets)}: {probe.stderr[-300:]}")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf", GOLDEN],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    failed = {
        line.split("::", 1)[1].split(" ")[0]
        for line in proc.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    assert proc.returncode == (1 if failed else 0), proc.stdout[-2000:]
    assert failed == GAUSSIAN, proc.stdout[-2000:]
