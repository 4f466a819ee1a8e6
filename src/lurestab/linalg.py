"""Dense symmetric small-matrix numerics shared by every other module.

Matrices here are plain numpy arrays.  Functions that require symmetric
input symmetrize defensively (the problems treated by this package have
dimension n+m of order 20, so the extra work is immaterial).
"""

from functools import lru_cache

import numpy as np

__all__ = ["spectral_norm", "symmetrize"]


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
