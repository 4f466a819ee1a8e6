"""Matrix cones used by the multiplier LMIs.

Z: nonpositive off-diagonal entries (diagonal free).
Z0: Z with zero diagonal.
DHD (doubly hyperdominant): Z with nonnegative row and column sums.
DD (doubly dominant): |M|_d has nonnegative row and column sums, where
|M|_d keeps the diagonal and replaces each off-diagonal entry by minus its
absolute value.  Every DHD matrix is DD (|M|_d = M on Z matrices); the
converse fails as soon as an off-diagonal entry is positive.
"""

import enum
from typing import NamedTuple

import numpy as np

__all__ = ["ConeTag", "MembershipResult", "abs_d", "is_member", "random_member"]


class ConeTag(enum.Enum):
    Z = "Z"
    Z0 = "Z0"
    DHD = "DHD"
    DD = "DD"


def abs_d(M: np.ndarray) -> np.ndarray:
    """Companion matrix with diagonal kept and off-diagonal negated in magnitude."""
    M = np.asarray(M, dtype=float)
    out = -np.abs(M)
    np.fill_diagonal(out, np.diag(M).copy())
    return out


class MembershipResult(NamedTuple):
    member: bool
    worst_violation: float


def _offdiag_values(M: np.ndarray) -> np.ndarray:
    mask = ~np.eye(M.shape[0], dtype=bool)
    return M[mask]


def is_member(M: np.ndarray, cone: ConeTag, tol: float = 1e-9) -> MembershipResult:
    """Test cone membership; the violation is the largest constraint excess.

    A matrix is reported as a member when the worst excess does not exceed
    tol; the excess itself is returned so callers can log margins.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"cone membership needs a square matrix, got {M.shape}")
    off = _offdiag_values(M)
    excesses = [0.0]
    if cone == ConeTag.Z:
        if off.size:
            excesses.append(float(np.max(off)))
    elif cone == ConeTag.Z0:
        if off.size:
            excesses.append(float(np.max(off)))
        excesses.append(float(np.max(np.abs(np.diag(M)))))
    elif cone == ConeTag.DHD:
        if off.size:
            excesses.append(float(np.max(off)))
        excesses.append(float(np.max(-M.sum(axis=1))))
        excesses.append(float(np.max(-M.sum(axis=0))))
    elif cone == ConeTag.DD:
        A = abs_d(M)
        excesses.append(float(np.max(-A.sum(axis=1))))
        excesses.append(float(np.max(-A.sum(axis=0))))
    else:
        raise ValueError(f"unknown cone {cone!r}")
    worst = max(0.0, max(excesses))
    return MembershipResult(member=worst <= tol, worst_violation=worst)


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
