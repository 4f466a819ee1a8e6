"""Dense symmetric small-matrix numerics shared by every other module.

Matrices here are plain numpy arrays.  Functions that require symmetric
input symmetrize defensively (the problems treated by this package have
dimension n+m of order 20, so the extra work is immaterial).
"""

from functools import lru_cache

import numpy as np

from .errors import ConeViolationError

__all__ = ["numerical_rank_and_factor", "spectral_norm", "symmetrize"]


@lru_cache(maxsize=None)
def _strict_triu_index(d: int):
    rows, cols = np.triu_indices(d, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def symmetrize(S: np.ndarray) -> np.ndarray:
    """Return (S + S^T)/2 as a new array with exact symmetry, batched over
    leading axes."""
    S = np.asarray(S, dtype=float)
    out = 0.5 * (S + np.swapaxes(S, -1, -2))
    # enforce bitwise symmetry, not just up to rounding
    rows, cols = _strict_triu_index(out.shape[-1])
    out[..., cols, rows] = out[..., rows, cols]
    return out


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of a real matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def numerical_rank_and_factor(
    S: np.ndarray, rel_tol: float = 1e-6
) -> tuple[int, np.ndarray]:
    """Numerical rank of a PSD matrix and a factor V with S ~ V V^T.

    The rank counts eigenvalues above rel_tol times the largest one; the
    returned factor keeps exactly those eigendirections, scaled by the
    square roots of their eigenvalues.  For rank 1 the factor is the single
    column h with S ~ h h^T.

    Raises ConeViolationError if S is indefinite beyond tolerance
    (lambda_min < -rel_tol * lambda_max).
    """
    lam, Q = np.linalg.eigh(symmetrize(S))
    order = np.argsort(lam)[::-1]
    lam, Q = lam[order], Q[:, order]
    lam_max = float(lam[0]) if lam.size else 0.0
    if lam_max <= 0.0:
        # at most the zero matrix within tolerance; negative top eigenvalue
        # means the input is not PSD at all
        if lam.size and lam[-1] < -rel_tol * max(abs(lam_max), 1e-300):
            raise ConeViolationError(
                f"matrix is not PSD: lambda_min={lam[-1]:.3e}, lambda_max={lam_max:.3e}"
            )
        return 0, np.zeros((S.shape[0], 0))
    if lam[-1] < -rel_tol * lam_max:
        raise ConeViolationError(
            f"matrix is not PSD: lambda_min={lam[-1]:.3e}, lambda_max={lam_max:.3e}"
        )
    keep = lam > rel_tol * lam_max
    rank = int(np.count_nonzero(keep))
    V = Q[:, keep] * np.sqrt(np.clip(lam[keep], 0.0, None))
    return rank, V
