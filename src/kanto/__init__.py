"""Bivariate reconstruction from lattice samples and cell averages.

Kernels are tensor products of compactly supported axis kernels (central
B-splines or moment-cancelling combinations of their shifts).  Operators
rebuild a function from point samples, from cell averages, or through a
boolean-sum scheme tuned to functions with small mixed smoothness.  The
analysis module evaluates the matching error bounds so every reconstruction
can be compared against its guarantee.
"""

from .analysis import (
    BoundReport,
    ConvergenceTable,
    FunctionProfile,
    KFunctionalConstants,
    build_bound_report,
    convergence_study,
    gbs_differential_bound,
    gbs_modulus_bound,
    gw_error_bound,
    inverse_result_probe,
    kfunctional_constants,
    mixed_modulus_estimate,
    polynomial_reproduction_check,
    sw_remainder_bound,
)
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
