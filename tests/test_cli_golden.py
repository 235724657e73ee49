"""CLI output pinned by sha256: every README example, the benchmark argvs,
and argvs that reach each operator dispatch.

The README and benchmark digests were taken from the code before the CSV
writer was shared by all tables, the dispatch ones from the code before
the operator registry; any change to the bytes a command prints shows up
here.
Inputs are built in the test: a cell-average lattice CSV, a small PGM, and
the benchmark's own seeded inputs at smoke size.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from kanto import LatticeField, fn_lookup, write_lattice_csv
from kanto.cli import main
from kanto.operators import KIND_CELL_AVERAGES

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

README = {
    "kernel_info": ("kernel-info", "--kernel", "combo", "--r", "3", "--shifts", "2,3,4"),
    "moments": ("moments", "--eta-max", "3"),
    "reconstruct_fn": (
        "reconstruct", "--fn", "sin_x_cos_y", "--op", "gw", "--w", "10",
        "--box", "0,0,1,1", "--grid-n", "9",
    ),
    "reconstruct_csv": ("reconstruct", "--input", "{csv}", "--op", "sw", "--grid-n", "64"),
    "reconstruct_pgm": (
        "reconstruct", "--input", "{pgm}", "--input-w", "8", "--op", "gw", "--grid-n", "32",
    ),
    "bounds": ("bounds", "--fn", "gaussian", "--w", "10"),
    "converge": ("converge", "--fn", "sin_x_cos_y", "--op", "gw", "--w-list", "5,10,20,40"),
    "gbs": ("gbs", "--fn", "xy", "--w", "10"),
}

# operator and kernel choices that no README example reaches
DISPATCH = {
    "reconstruct_gbs": ("reconstruct", "--fn", "xy", "--op", "gbs", "--w", "10"),
    "converge_sw": ("converge", "--fn", "x2", "--op", "sw", "--w-list", "5,10,20"),
    "bounds_bspline": (
        "bounds", "--fn", "sin_x_cos_y", "--kernel", "bspline", "--r", "2", "--w", "10",
    ),
}

DIGESTS = {
    "bounds": "890d69cde06a0fdd0de9d6eca14c2050fed666ccf8365c9eb4509773080ad39b",
    "bounds_bspline": "e8ab2e082268ce6686c721957cffc3d4d8b4c817fea69d01ce12654c0cab1411",
    "catalog_sw": "1b43fd32f17d619b6ff8d8b0066ea245ec4648800a97b9a9acc35289b180e696",
    "converge": "15b2694bd8ac2b47f7b619ec228744f5814cc21371818e2877edf024d86d487c",
    "converge_sw": "040d6e85e86fa56ab6c682897c8a4d1e61029303c0edf364d15636afe17137dd",
    "gbs": "456e0fbccc53fee67eb7686f996dd2863d2d1d5026188c97b19173e0c896b22c",
    "gbs_converge": "2ec534443d0711043c3957cd6c042b7a94cb3a85a7335cf7fe608aee34694a5b",
    "grid_csv": "854bff71b33660dd5fa8ff53a0d88be9fc077fd5d9cb68e7b7e4d840f2cee4f0",
    "image_gw": "17d99a7cec34b299adb8d4df5679a882301c81e3cfe8fbf28617d0bda973a069",
    "kernel_info": "7a15274588ff2e1775f570ac5526351d003614a1cb531c1d1a3b01cc7b3ad259",
    "moments": "d947dca87075e3928bc7cfcadcc9342796276f24110c4f3c3f95ea7f46413b26",
    "reconstruct_csv": "048f8975dbadfe5fba0d4bc26cf634815cb45f8a652a8c3198632cecc76bb921",
    "reconstruct_fn": "f358893aa62ba3d5562da54a21016da403f7f07593b3be7347b1004486cba641",
    "reconstruct_gbs": "888ecbb9264de9dac1845550b618ee8a35fcb5e6cbca004df75ac76cb1392101",
    "reconstruct_pgm": "239e287d28a8eacd6e792e6992cbe9ce121949f1603fe396cb698c9291a5e584",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The README's grid.csv and photo.pgm, built deterministically."""
    tmp = tmp_path_factory.mktemp("golden")
    csv = tmp / "grid.csv"
    field = LatticeField.from_function(
        fn_lookup("gaussian"), 10.0, -8, 18, -8, 18, kind=KIND_CELL_AVERAGES
    )
    write_lattice_csv(field, csv)
    k, j = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    pixels = (128 + 100 * np.sin(0.2 * k) * np.cos(0.15 * j)).astype(np.uint8)
    pgm = tmp / "photo.pgm"
    workloads.write_pgm(pgm, pixels)
    return {"csv": str(csv), "pgm": str(pgm), "dir": tmp}


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(argv, out) -> str:
    assert main([*argv, "--out", str(out)]) == 0
    return digest(out)


@pytest.mark.parametrize("name", sorted(README))
def test_readme_example(name, inputs, tmp_path):
    argv = [a.format(**inputs) for a in README[name]]
    assert run(argv, tmp_path / "out.csv") == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DISPATCH))
def test_dispatch_example(name, tmp_path):
    assert run(DISPATCH[name], tmp_path / "out.csv") == DIGESTS[name]


def test_lattice_csv_writer(inputs):
    assert digest(inputs["csv"]) == DIGESTS["grid_csv"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_benchmark_workload_at_smoke_size(name, tmp_path):
    load = workloads.make(name, 1, tmp_path, size="smoke")
    assert run(load.argv, tmp_path / "out.csv") == DIGESTS[name]


def test_benchmark_workloads_sort_nothing(tmp_path, monkeypatch):
    # every repeated column reaches the CSV writer factored by its producer,
    # so a run needs no np.sort or np.unique, writer or not; the smoke runs
    # take a 9 x 9 grid, whose 81 rows pass the short columns that the
    # writer prints value by value
    searches = []

    def counted(search):
        def counting(*args, **kwargs):
            searches.append(search.__name__)
            return search(*args, **kwargs)

        return counting

    argvs = {}
    for name in workloads.NAMES:
        argv = list(workloads.make(name, 1, tmp_path, size="smoke").argv)
        argv[argv.index("--grid-n") + 1] = "9"
        argvs[name] = [*argv, "--out", str(tmp_path / f"{name}.csv")]
    monkeypatch.setattr(np, "sort", counted(np.sort))
    monkeypatch.setattr(np, "unique", counted(np.unique))
    for name, argv in argvs.items():
        assert main(argv) == 0
        assert searches == [], name
