import numpy as np
import pytest

from lurestab import SlopeBand
from lurestab.cones import ConeTag
from helpers import quad_form, random_member
from lurestab.multipliers import build_multiplier
from oracles import sample_slope_fn


def test_multiplier_shape_and_symmetry():
    M = random_member(ConeTag.DHD, 3, seed=0)
    mult = build_multiplier(M, SlopeBand(0.0, 1.0))
    assert mult.pi.shape == (6, 6)
    assert np.array_equal(mult.pi, mult.pi.T)
    assert mult.m == 3


def test_multiplier_congruence_explicit():
    # compare against the block congruence computed longhand
    rng = np.random.default_rng(5)
    m = 2
    M = rng.normal(size=(m, m))
    band = SlopeBand(-0.5, 2.0)
    mult = build_multiplier(M, band)
    zeta = rng.normal(size=m)
    w = rng.normal(size=m)
    direct = 2.0 * float((band.nu * zeta - w) @ M @ (w - band.mu * zeta))
    assert quad_form(mult, zeta, w) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_quad_form_nonnegative_on_class_samples():
    band = SlopeBand(0.0, 1.0)
    for k in range(50):
        rng = np.random.default_rng(1_000 + k)
        m = int(rng.integers(1, 6))
        M = random_member(ConeTag.DHD, m, seed=2_000 + k)
        sample = sample_slope_fn(band, seed=3_000 + k)
        mult = build_multiplier(M, band)
        zeta = rng.normal(size=m) * rng.uniform(0.1, 3.0)
        w = np.asarray(sample.phi(zeta))
        scale = max(1.0, float(np.linalg.norm(mult.pi) * (zeta @ zeta + w @ w)))
        assert quad_form(mult, zeta, w) >= -1e-9 * scale


def test_quad_form_detects_class_violation():
    # a map with slope above the band must produce a negative form for
    # some diagonal M; slope 3 on [0, 1] with M = I and scalar channel
    band = SlopeBand(0.0, 1.0)
    mult = build_multiplier(np.eye(1), band)
    zeta = np.array([1.0])
    w = np.array([3.0])  # phi(z) = 3 z violates the band
    assert quad_form(mult, zeta, w) < 0.0


def test_build_multiplier_rejects_nonsquare():
    with pytest.raises(ValueError):
        build_multiplier(np.ones((2, 3)), SlopeBand(0.0, 1.0))


def test_quad_form_rejects_bad_lengths():
    mult = build_multiplier(np.eye(2), SlopeBand(0.0, 1.0))
    with pytest.raises(ValueError):
        quad_form(mult, np.ones(3), np.ones(2))
