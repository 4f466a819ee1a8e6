"""Piecewise-linear map construction, evaluation, and slope auditing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lurestab.errors import StructuralError
from lurestab.pwl import SLOPE_TOL, SYM_TOL, PiecewiseLinearMap, eval_pwl, verify_slope
from lurestab.system import SlopeBand


def ramp(points):
    return PiecewiseLinearMap(np.asarray(points, dtype=float))


def test_breakpoints_must_increase():
    with pytest.raises(StructuralError):
        ramp([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(StructuralError):
        ramp([[1.0, 0.0], [0.0, 1.0]])


def test_breakpoints_shape_and_finiteness():
    with pytest.raises(StructuralError):
        PiecewiseLinearMap(np.zeros((2, 3)))
    with pytest.raises(StructuralError):
        ramp([[0.0, np.inf]])


def test_eval_interpolates_and_saturates():
    phi = ramp([[-1.0, -1.0], [0.0, 0.0], [2.0, 1.0]])
    assert eval_pwl(phi, -0.5) == pytest.approx(-0.5)
    assert eval_pwl(phi, 1.0) == pytest.approx(0.5)
    # constant beyond the hull on both sides
    assert eval_pwl(phi, -7.0) == -1.0
    assert eval_pwl(phi, 99.0) == 1.0


def test_eval_is_exact_at_breakpoints():
    pts = np.array([[-2.0, 0.3], [-0.5, -0.1], [1.25, 0.7]])
    phi = PiecewiseLinearMap(pts)
    out = eval_pwl(phi, pts[:, 0])
    assert np.array_equal(out, pts[:, 1])


def test_eval_scalar_vs_array():
    phi = ramp([[0.0, 0.0], [1.0, 1.0]])
    s = eval_pwl(phi, 0.25)
    assert isinstance(s, float)
    arr = eval_pwl(phi, np.array([0.25, 0.75]))
    assert arr.shape == (2,)
    assert arr[0] == s


def test_single_breakpoint_is_constant():
    phi = ramp([[0.0, 0.0]])
    assert phi.segment_slopes().size == 0
    assert eval_pwl(phi, -3.0) == 0.0
    assert eval_pwl(phi, 3.0) == 0.0


def test_verify_slope_accepts_identity_boundary():
    # slope exactly nu = 1 must pass, not fall to rounding
    phi = ramp([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
    rep = verify_slope(phi, SlopeBand(0.0, 1.0))
    assert rep.ok
    assert rep.max_slope == 1.0
    assert rep.min_slope == 0.0


def test_verify_slope_slack_is_the_module_tolerances():
    band = SlopeBand(0.0, 1.0)
    inside = ramp([[0.0, 0.0], [1.0, 1.0 + 0.5 * SLOPE_TOL]])
    outside = ramp([[0.0, 0.0], [1.0, 1.0 + 2.0 * SLOPE_TOL]])
    assert verify_slope(inside, band).ok
    assert not verify_slope(outside, band).ok
    assert verify_slope(ramp([[-1.0, -1.0], [1.0, 1.0 + SYM_TOL]]), band).ok
    assert not verify_slope(ramp([[-1.0, -1.0], [1.0, 1.0 + 4.0 * SYM_TOL]]), band).ok


def test_verify_slope_rejects_excess_slope():
    phi = ramp([[0.0, 0.0], [1.0, 2.0]])
    rep = verify_slope(phi, SlopeBand(0.0, 1.0))
    assert not rep.ok
    assert rep.max_slope == pytest.approx(2.0)


def test_verify_slope_rejects_negative_slope_outside_band():
    phi = ramp([[0.0, 0.0], [1.0, -0.5]])
    rep = verify_slope(phi, SlopeBand(0.0, 1.0))
    assert not rep.ok
    assert rep.min_slope == pytest.approx(-0.5)


def test_verify_slope_requires_zero_at_origin():
    phi = ramp([[-1.0, 0.5], [1.0, 0.9]])
    rep = verify_slope(phi, SlopeBand(0.0, 1.0))
    assert not rep.ok
    assert rep.origin_defect > 0.0


def test_verify_slope_checks_odd_claim():
    pts = [[-1.0, -0.2], [0.0, 0.0], [1.0, 0.8]]
    asym = PiecewiseLinearMap(np.asarray(pts, dtype=float), odd=True)
    rep = verify_slope(asym, SlopeBand(0.0, 1.0))
    assert not rep.ok
    assert rep.odd_defect == pytest.approx(0.6)

    sym = PiecewiseLinearMap(
        np.array([[-1.0, -0.8], [0.0, 0.0], [1.0, 0.8]]), odd=True
    )
    rep = verify_slope(sym, SlopeBand(0.0, 1.0))
    assert rep.ok
    assert rep.odd_defect == 0.0


def test_plateaus_need_zero_in_band():
    # saturation tails are slope-0 segments, so a band like [0.5, 1] fails
    phi = ramp([[0.0, 0.0], [1.0, 0.75]])
    rep = verify_slope(phi, SlopeBand(0.0, 1.0))
    assert rep.ok
    assert rep.min_slope == 0.0


@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    st.randoms(use_true_random=False),
)
def test_interpolant_slopes_stay_in_band(zs, rng):
    # build node values by integrating slopes sampled inside the band
    z = np.sort(np.asarray(zs, dtype=float))
    if np.min(np.diff(z)) < 1.0e-6:
        return
    band = SlopeBand(0.0, 1.0)
    slopes = np.array([rng.uniform(band.mu, band.nu) for _ in z[1:]])
    w = np.concatenate([[0.0], np.cumsum(slopes * np.diff(z))])
    w = w - np.interp(0.0, z, w)  # pin the origin inside the hull
    if not (z[0] <= 0.0 <= z[-1]):
        return
    phi = PiecewiseLinearMap(np.column_stack([z, w]))
    rep = verify_slope(phi, band)
    # the slopes are rounded through the node values
    assert band.mu - 1.0e-7 <= rep.min_slope and rep.max_slope <= band.nu + 1.0e-7
