"""Dense symmetric small-matrix numerics shared by every other module.

Matrices here are plain numpy arrays.  Functions that require symmetric
input symmetrize defensively (the problems treated by this package have
dimension n+m of order 20, so the extra work is immaterial).
"""

import numpy as np

__all__ = ["spectral_norm", "symmetrize"]


def symmetrize(S: np.ndarray) -> np.ndarray:
    """Return (S + S^T)/2 as a new array, batched over leading axes.  For
    finite S it is symmetric to the last bit, since floating-point
    addition commutes."""
    S = np.asarray(S, dtype=float)
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of a real matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))
