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

__all__ = ["ConeTag", "MembershipResult", "is_member"]


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
