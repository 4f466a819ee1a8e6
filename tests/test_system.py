import numpy as np
import pytest

from lurestab import (
    AssumptionViolatedError,
    NonlinearityClass,
    SlopeBand,
    StateSpaceSystem,
    StructuralError,
    spectral_radius,
    validate,
)


def test_band_validation():
    band = SlopeBand(-0.5, 2.0)
    assert not band.is_reduced
    assert SlopeBand(0.0, 1.0).is_reduced
    with pytest.raises(StructuralError):
        SlopeBand(0.5, 1.0)
    with pytest.raises(StructuralError):
        SlopeBand(-1.0, -0.5)
    with pytest.raises(StructuralError):
        SlopeBand(0.0, float("inf"))


def test_system_shape_checks():
    A = np.eye(2) * 0.5
    B = np.ones((2, 3))
    C = np.ones((3, 2))
    D = np.zeros((3, 3))
    sys = StateSpaceSystem(A, B, C, D)
    assert sys.n == 2 and sys.m == 3
    assert sys.nl_class is NonlinearityClass.SLOPE
    with pytest.raises(StructuralError):
        StateSpaceSystem(np.ones((2, 3)), B, C, D)
    with pytest.raises(StructuralError):
        StateSpaceSystem(A, np.ones((3, 3)), C, D)
    with pytest.raises(StructuralError):
        StateSpaceSystem(A, B, np.ones((2, 2)), D)
    with pytest.raises(StructuralError):
        StateSpaceSystem(A, B, C, np.zeros((2, 3)))
    with pytest.raises(StructuralError):
        StateSpaceSystem(np.array([[np.nan]]), np.ones((1, 1)),
                         np.ones((1, 1)), np.zeros((1, 1)))


def test_spectral_radius():
    A = np.array([[0.0, 1.0], [-0.25, 0.0]])
    assert spectral_radius(A) == pytest.approx(0.5)


def test_validate_reports_margins(slope_example):
    rep = validate(slope_example)
    assert rep.n == 2 and rep.m == 4
    assert 0.0 < rep.rho_a < 1.0
    assert rep.schur_margin == pytest.approx(1.0 - rep.rho_a)
    # this example has a large direct-feedthrough block, so loop
    # well-posedness is not guaranteed for the whole class
    assert rep.d_norm > 1.0
    assert not rep.well_posedness_guaranteed


def test_validate_rejects_unstable():
    sys = StateSpaceSystem(np.array([[1.0]]), np.ones((1, 1)),
                           np.ones((1, 1)), np.zeros((1, 1)))
    with pytest.raises(AssumptionViolatedError):
        validate(sys)
