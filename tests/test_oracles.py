import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab import SlopeBand
from oracles import audit_multiplier_inequality, sample_slope_fn


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_sample_slope_fn_quotients_in_band(seed, odd):
    band = SlopeBand(0.0, 1.0)
    sample = sample_slope_fn(band, seed=seed, odd=odd)
    rng = np.random.default_rng(seed + 1)
    z = rng.uniform(-6.0, 6.0, size=40)
    vals = np.asarray(sample.phi(z))
    # difference quotients over random pairs stay inside [mu, nu]
    for i in range(0, 38, 2):
        dz = z[i] - z[i + 1]
        if abs(dz) < 1e-9:
            continue
        q = (vals[i] - vals[i + 1]) / dz
        assert band.mu - 1e-9 <= q <= band.nu + 1e-9
    assert abs(float(sample.phi(0.0))) <= 1e-12


def test_sample_slope_fn_odd_antisymmetry():
    band = SlopeBand(0.0, 1.0)
    sample = sample_slope_fn(band, seed=7, odd=True)
    z = np.linspace(-5, 5, 101)
    assert np.allclose(np.asarray(sample.phi(-z)), -np.asarray(sample.phi(z)), atol=1e-12)


def test_sample_slope_fn_deterministic():
    band = SlopeBand(0.0, 1.0)
    a = sample_slope_fn(band, seed=11)
    b = sample_slope_fn(band, seed=11)
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.values, b.values)


def test_audit_multiplier_inequality_positive_case():
    band = SlopeBand(0.0, 1.0)
    sample = sample_slope_fn(band, seed=3)
    M = np.eye(1) * 2.0
    rep = audit_multiplier_inequality(M, band, sample.phi, trials=200, seed=5)
    assert rep.min_normalized >= -1e-9


def test_audit_multiplier_inequality_flags_violation():
    band = SlopeBand(0.0, 1.0)
    rep = audit_multiplier_inequality(
        np.eye(1), band, lambda z: 3.0 * np.asarray(z), trials=50, seed=2
    )
    assert rep.min_value < 0.0
    assert rep.min_normalized < 0.0
