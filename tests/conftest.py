import pytest

from kanto import (
    CentralBSpline,
    MomentTable,
    TensorKernel2D,
    construct_combination_kernel,
)

STANDARD_SHIFTS = (2.0, 3.0, 4.0)


@pytest.fixture(scope="session")
def chi3():
    return construct_combination_kernel(3, STANDARD_SHIFTS)


@pytest.fixture(scope="session")
def chibar3(chi3):
    return TensorKernel2D(chi3, chi3)


@pytest.fixture(scope="session")
def m3():
    return CentralBSpline(3)


@pytest.fixture(scope="session")
def m3_tensor(m3):
    return TensorKernel2D(m3, m3)


# order-4 tables, which every bound can read, on the default 64-point grid
@pytest.fixture(scope="session")
def chibar3_moments(chibar3):
    return MomentTable.compute(chibar3, eta_max=4)


@pytest.fixture(scope="session")
def m3_moments(m3_tensor):
    return MomentTable.compute(m3_tensor, eta_max=4)
