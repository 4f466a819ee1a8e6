import numpy as np
import pytest

from lurestab.linalg import spectral_norm, symmetrize


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
