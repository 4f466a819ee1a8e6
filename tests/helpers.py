"""Test-only helpers: random members of the multiplier cones and the
multiplier quadratic form.  Nothing in the package needs them."""

import numpy as np

from lurestab.cones import ConeTag
from lurestab.multipliers import Multiplier

__all__ = ["quad_form", "random_member"]


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
