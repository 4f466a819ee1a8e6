"""Test-only helpers: random members of the multiplier cones, the
multiplier quadratic form, and interior points and the dense NT scaling of
the interior-point core's cone.  Nothing in the package needs them."""

import numpy as np

from cones import ConeTag
from lurestab.conic import ConeSpec, _orthant_rows, smat, svec
from lurestab.multipliers import Multiplier

__all__ = ["dense_w", "formed_rows", "interior_point", "quad_form", "random_member"]


def random_member(cone: ConeTag, m: int, seed: int) -> np.ndarray:
    """Draw a random member of the cone, valid under is_member with tol=0."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = np.random.default_rng(seed)
    hollow_mask = ~np.eye(m, dtype=bool)

    if cone == ConeTag.Z:
        M = np.zeros((m, m))
        M[hollow_mask] = -rng.uniform(0.0, 1.0, size=m * m - m)
        np.fill_diagonal(M, rng.normal(size=m))
        return M
    if cone == ConeTag.Z0:
        M = np.zeros((m, m))
        M[hollow_mask] = -rng.uniform(0.0, 1.0, size=m * m - m)
        return M
    if cone == ConeTag.DHD:
        M = np.zeros((m, m))
        M[hollow_mask] = -rng.uniform(0.0, 1.0, size=m * m - m)
        deficit_row = -M.sum(axis=1)
        deficit_col = -M.sum(axis=0)
        boost = rng.uniform(0.1, 1.1, size=m)
        np.fill_diagonal(M, np.maximum(deficit_row, deficit_col) + boost)
        return M
    if cone == ConeTag.DD:
        M = np.zeros((m, m))
        M[hollow_mask] = rng.uniform(-1.0, 1.0, size=m * m - m)
        absM = np.abs(M)
        boost = rng.uniform(0.1, 1.1, size=m)
        np.fill_diagonal(M, np.maximum(absM.sum(axis=1), absM.sum(axis=0)) + boost)
        return M
    raise ValueError(f"unknown cone {cone!r}")


def quad_form(mult: Multiplier, zeta: np.ndarray, w: np.ndarray) -> float:
    """Evaluate [zeta; w]^T Pi [zeta; w]."""
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    if zeta.shape[0] != mult.m or w.shape[0] != mult.m:
        raise ValueError(
            f"expected vectors of length {mult.m}, got {zeta.shape[0]} and {w.shape[0]}"
        )
    v = np.concatenate([zeta, w])
    return float(v @ mult.pi @ v)


def interior_point(cone: ConeSpec, rng: np.random.Generator) -> np.ndarray:
    """A random strictly interior point of the cone, ill-conditioned as late
    interior-point iterates are: F F^T + 0.1 I has a condition number of
    about 40 d, and the orthant spans [0.1, 3]."""
    F = rng.normal(size=(cone.d, cone.d))
    x = np.empty(cone.total_len)
    x[cone.psd] = svec(F @ F.T + 0.1 * np.eye(cone.d))
    x[cone.orthant] = rng.uniform(0.1, 3.0, size=cone.p)
    return x


def dense_w(sc) -> np.ndarray:
    """The NT scaling W of sc (conic._Scaling) as a dense matrix; its PSD
    block one svec basis vector at a time."""
    cone, R = sc.cone, sc.R
    out = np.zeros((cone.total_len, cone.total_len))
    basis = smat(np.eye(cone.psd.stop), cone.d)
    out[cone.psd, cone.psd] = svec(R.T @ basis @ R).T
    out[cone.orthant, cone.orthant] = np.diag(sc.w)
    return out


def formed_rows(A: np.ndarray, cone: ConeSpec):
    """The rows of A as conic._Scaling.schur takes them where B is formed:
    the PSD block's as matrices (nrows, d, d), and the orthant's nonzeros."""
    return smat(A[:, cone.psd], cone.d), _orthant_rows(A[:, cone.orthant])
