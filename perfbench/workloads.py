"""Benchmark workloads: seeded inputs and the kanto command line for each.

Every workload is one ``kanto`` invocation.  Its inputs come from the
workload seed alone: a generated PGM image for ``image_gw``, a small jitter
of the evaluation box for the two catalog workloads.  The CLI receives only
the generated files and flags.

Why these three (see NOTES.md for the measured shares):

* ``image_gw``: the measured-data path.  A lattice source with no function
  evaluations and no quadrature; time goes to the kernel, window lookups and
  a 12.5k-row CSV.
* ``catalog_sw``: an analytic cell-average source where neighbouring windows
  share most cells, so it shows whether reuse of cell averages survives a
  change.
* ``gbs_converge``: the boolean-sum path with its own copy of the loop,
  675 scalar ``f`` calls per point, windows that barely overlap at w = 40,
  the analysis layer and a tiny output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("image_gw", "catalog_sw", "gbs_converge")

# The CLI's default kernel: combination of order 3 with shifts 2, 3, 4.
KERNEL_R = 3
KERNEL_SHIFTS = (2.0, 3.0, 4.0)
QUAD_ORDER = 5

CATALOG_BOX = (-1.0, -1.0, 2.0, 2.0)
BOX_JITTER = 0.02  # per corner, uniform in [-BOX_JITTER, BOX_JITTER]

# size -> parameters; "smoke" runs every code path in well under a second
SIZES = {
    "full": {"image_n": 512, "image_grid": 112, "sw_grid": 96,
             "gbs_grid": 20, "gbs_rates": (5.0, 10.0, 20.0, 40.0)},
    "smoke": {"image_n": 64, "image_grid": 6, "sw_grid": 6,
              "gbs_grid": 3, "gbs_rates": (5.0, 10.0)},
}


@dataclass(frozen=True)
class Workload:
    """One seeded kanto invocation and what its checker needs to know."""

    name: str
    seed: int
    size: str
    argv: tuple[str, ...]  # kanto argv without --out
    points: int  # evaluation points per invocation
    params: dict = field(default_factory=dict)


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _smooth_image(rng: np.random.Generator, n: int) -> np.ndarray:
    """n x n uint8 pixels indexed [k, j]: a few low-frequency waves plus noise."""
    s = np.arange(n, dtype=float) / n
    u, v = np.meshgrid(s, s, indexing="ij")
    field_ = np.full((n, n), 0.5)
    for _ in range(4):
        fu, fv = rng.uniform(0.5, 4.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field_ += 0.08 * np.sin(2.0 * np.pi * (fu * u + fv * v) + phase)
    field_ += 0.03 * rng.standard_normal((n, n))
    return np.clip(np.rint(255.0 * field_), 0, 255).astype(np.uint8)


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    """Binary P5 PGM; pixels[k, j] becomes column k of row j."""
    n_k, n_j = pixels.shape
    header = f"P5\n{n_k} {n_j}\n255\n".encode()
    path.write_bytes(header + np.ascontiguousarray(pixels.T).tobytes())


def _jittered_box(rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(c + rng.uniform(-BOX_JITTER, BOX_JITTER) for c in CATALOG_BOX)


def make(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    """Build workload ``name`` for ``seed``, writing its input files to workdir."""
    sz = SIZES[size]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "image_gw":
        pixels = _smooth_image(rng, sz["image_n"])
        path = workdir / "input.pgm"
        write_pgm(path, pixels)
        n = sz["image_grid"]
        argv = ("reconstruct", "--input", str(path), "--input-w", "8",
                "--op", "gw", "--grid-n", str(n))
        return Workload(name, seed, size, argv, n * n,
                        {"pixels": pixels, "w": 8.0, "grid_n": n})
    if name == "catalog_sw":
        box = _jittered_box(rng)
        n = sz["sw_grid"]
        argv = ("reconstruct", "--fn", "gaussian", "--op", "sw", "--w", "20",
                "--grid-n", str(n), "--box=" + ",".join(map(_g, box)))
        return Workload(name, seed, size, argv, n * n,
                        {"fn": "gaussian", "w": 20.0, "grid_n": n, "box": box})
    if name == "gbs_converge":
        box = _jittered_box(rng)
        n = sz["gbs_grid"]
        rates = sz["gbs_rates"]
        argv = ("converge", "--fn", "sin_x_cos_y", "--op", "gbs",
                "--w-list", ",".join(map(_g, rates)), "--grid-n", str(n),
                "--box=" + ",".join(map(_g, box)))
        return Workload(name, seed, size, argv, n * n * len(rates),
                        {"fn": "sin_x_cos_y", "rates": rates, "grid_n": n,
                         "box": box})
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
