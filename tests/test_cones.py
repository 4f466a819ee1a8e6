import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab.cones import ConeTag, abs_d, is_member
from helpers import random_member


def test_abs_d_keeps_diagonal_negates_offdiag():
    M = np.array([[2.0, -1.0], [3.0, -4.0]])
    out = abs_d(M)
    assert np.allclose(out, [[2.0, -1.0], [-3.0, -4.0]])


def test_abs_d_fixed_point_on_z():
    M = np.array([[5.0, -1.0, -2.0], [-0.5, 3.0, 0.0], [-1.0, -1.0, 4.0]])
    assert np.allclose(abs_d(M), M)


def test_membership_z():
    good = np.array([[1.0, -0.5], [-2.0, -3.0]])
    bad = np.array([[1.0, 0.5], [-2.0, -3.0]])
    assert is_member(good, ConeTag.Z).member
    res = is_member(bad, ConeTag.Z)
    assert not res.member
    assert res.worst_violation == pytest.approx(0.5)


def test_membership_z0():
    good = np.array([[0.0, -1.0], [-0.5, 0.0]])
    assert is_member(good, ConeTag.Z0).member
    assert not is_member(np.array([[0.1, -1.0], [-0.5, 0.0]]), ConeTag.Z0).member


def test_membership_dhd():
    M = np.array([[2.0, -1.0], [-0.5, 1.0]])
    assert is_member(M, ConeTag.DHD).member
    # row sums fine but an off-diagonal entry is positive
    assert not is_member(np.array([[2.0, 1.0], [-0.5, 1.0]]), ConeTag.DHD).member
    # negative row sum
    assert not is_member(np.array([[0.5, -1.0], [-0.5, 1.0]]), ConeTag.DHD).member


def test_membership_dd_allows_positive_offdiag():
    M = np.array([[2.0, 1.0], [-0.5, 1.0]])
    assert is_member(M, ConeTag.DD).member
    assert not is_member(np.array([[0.5, 1.0], [-0.5, 1.0]]), ConeTag.DD).member


def test_membership_requires_square():
    with pytest.raises(ValueError):
        is_member(np.ones((2, 3)), ConeTag.Z)


def test_dhd_subset_dd():
    for seed in range(25):
        M = random_member(ConeTag.DHD, 4, seed=seed)
        assert is_member(M, ConeTag.DD, tol=1e-12).member


def test_z0_subset_z():
    for seed in range(10):
        M = random_member(ConeTag.Z0, 3, seed=seed)
        assert is_member(M, ConeTag.Z, tol=0.0).member


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(ConeTag)),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_random_member_is_member(tag, m, seed):
    M = random_member(tag, m, seed=seed)
    assert is_member(M, tag, tol=0.0).member


def test_random_member_rejects_bad_size():
    with pytest.raises(ValueError):
        random_member(ConeTag.Z, 0, seed=1)
