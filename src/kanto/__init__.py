"""Bivariate reconstruction from lattice samples and cell averages.

Kernels are tensor products of compactly supported axis kernels (central
B-splines or moment-cancelling combinations of their shifts).  Operators
rebuild a function from point samples, from cell averages, or through a
boolean-sum scheme tuned to functions with small mixed smoothness.  The
analysis module evaluates the matching error bounds so every reconstruction
can be compared against its guarantee.
"""

import importlib

from .functions import (
    CATALOG,
    TestFunction,
    UnknownFunction,
    UnsupportedOrder,
    fn_lookup,
    sup_norm_estimate,
)
from .kernel1d import (
    CentralBSpline,
    CombinationKernel,
    SingularSystem,
    bspline_eval,
    construct_combination_kernel,
    discrete_moment,
)
from .kernel2d import (
    MomentTable,
    TensorKernel2D,
    UnsupportedKernel,
    partition_of_unity_check,
    validate_kernel,
)
from .operators import (
    EvalGrid,
    LatticeField,
    MissingData,
    admissible_box,
    apply_gbs,
    apply_gw,
    apply_sw,
    cell_average,
    interior_margin,
    read_lattice_csv,
    read_pgm,
    representation_residual,
    write_lattice_csv,
)

__version__ = "0.1.0"

# The names of analysis.__all__ load kanto.analysis on first use (PEP 562):
# of the subcommands only bounds, converge and gbs need it, and every cold
# run compiles what it imports.  import_module, because ``from . import
# analysis`` would probe this __getattr__ for "analysis" and recurse.


def __getattr__(name: str):
    if not name.startswith("__"):
        analysis = importlib.import_module(".analysis", __name__)
        if name in analysis.__all__:
            return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *importlib.import_module(".analysis", __name__).__all__})
