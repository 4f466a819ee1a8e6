"""Static O'Shea-Zames-Falb multipliers for repeated slope-restricted maps.

For M in the DHD cone (DD when the nonlinearity is odd) and a band [mu, nu],
the multiplier is the congruence

    Pi = V^T [[0, M], [M^T, 0]] V,    V = [[nu I, -I], [-mu I, I]],

and every input/output pair (zeta, Phi(zeta)) of the class satisfies
[zeta; w]^T Pi [zeta; w] >= 0.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import symmetrize
from .system import SlopeBand

__all__ = ["Multiplier", "build_multiplier"]


@dataclass(frozen=True)
class Multiplier:
    """The 2m x 2m multiplier plus the data it was built from; both carry
    the leading batch axes of a stack of M."""

    pi: np.ndarray
    source_m: np.ndarray
    band: SlopeBand

    @property
    def m(self) -> int:
        return self.source_m.shape[-1]


def build_multiplier(M: np.ndarray, band: SlopeBand) -> Multiplier:
    """Assemble the multiplier for matrix M, or a stack (..., m, m) of them,
    on the given slope band."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"M must be square, got {M.shape}")
    m = M.shape[-1]
    eye = np.eye(m)
    zero = np.zeros_like(M)
    V = np.block([[band.nu * eye, -eye], [-band.mu * eye, eye]])
    K = np.block([[zero, M], [np.swapaxes(M, -1, -2), zero]])
    pi_raw = V.T @ K @ V
    pi = symmetrize(pi_raw)
    scale = np.linalg.norm(pi, axis=(-2, -1))
    asym = np.linalg.norm(pi_raw - np.swapaxes(pi_raw, -1, -2), axis=(-2, -1))
    over = (scale > 0) & (asym > 1e-14 * scale)
    if np.any(over):
        worst = float(np.max(asym[over]))
        raise AssertionError(f"multiplier asymmetry {worst:.3e} exceeds roundoff budget")
    return Multiplier(pi=pi, source_m=M, band=band)
