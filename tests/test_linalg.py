import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab import ConeViolationError
from lurestab.linalg import (
    numerical_rank_and_factor,
    spectral_norm,
    symmetrize,
)


def test_symmetrize_bitwise():
    rng = np.random.default_rng(0)
    S = rng.normal(size=(7, 7))
    out = symmetrize(S)
    assert np.array_equal(out, out.T)
    assert np.allclose(out, 0.5 * (S + S.T))


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 7))
    assert spectral_norm(M) == pytest.approx(np.linalg.svd(M)[1][0])
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_rank_and_factor_rank_one():
    rng = np.random.default_rng(3)
    h = rng.normal(size=5)
    S = np.outer(h, h)
    rank, V = numerical_rank_and_factor(S)
    assert rank == 1
    assert V.shape == (5, 1)
    assert np.allclose(V @ V.T, S, atol=1e-10)


def test_rank_and_factor_rank_two():
    rng = np.random.default_rng(4)
    V0 = rng.normal(size=(6, 2))
    S = V0 @ V0.T
    rank, V = numerical_rank_and_factor(S)
    assert rank == 2
    assert np.allclose(V @ V.T, S, atol=1e-9)


def test_rank_tolerance_splits_clusters():
    S = np.diag([1.0, 1e-8, 0.0])
    rank, _ = numerical_rank_and_factor(S, rel_tol=1e-6)
    assert rank == 1
    rank, _ = numerical_rank_and_factor(S, rel_tol=1e-10)
    assert rank == 2


def test_rank_rejects_indefinite():
    S = np.diag([1.0, -0.5])
    with pytest.raises(ConeViolationError):
        numerical_rank_and_factor(S)


def test_rank_zero_matrix():
    rank, V = numerical_rank_and_factor(np.zeros((4, 4)))
    assert rank == 0
    assert V.shape == (4, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_factor_reconstructs_psd(seed, dim):
    rng = np.random.default_rng(seed)
    V0 = rng.normal(size=(dim, dim))
    S = V0 @ V0.T
    rank, V = numerical_rank_and_factor(S, rel_tol=1e-12)
    assert np.allclose(V @ V.T, S, atol=1e-8 * max(1.0, np.linalg.norm(S)))
    assert rank <= dim
