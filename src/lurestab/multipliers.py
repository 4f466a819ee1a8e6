"""Static O'Shea-Zames-Falb multipliers for repeated slope-restricted maps.

For M in the DHD cone (DD when the nonlinearity is odd) and a band [mu, nu],
the multiplier is the congruence

    Pi = V^T [[0, M], [M^T, 0]] V,    V = [[nu I, -I], [-mu I, I]],

and every input/output pair (zeta, Phi(zeta)) of the class satisfies
[zeta; w]^T Pi [zeta; w] >= 0.

This is the paper's form of the multiplier, for one M: the public API and
the reference the tests hold lmi.lmi_congruence to.  The analysis does not
build it; it reads L(P, M) off lmi.lmi_congruence.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import symmetrize
from .system import SlopeBand

__all__ = ["Multiplier", "build_multiplier"]


@dataclass(frozen=True)
class Multiplier:
    """The 2m x 2m multiplier plus the data it was built from."""

    pi: np.ndarray
    source_m: np.ndarray
    band: SlopeBand

    @property
    def m(self) -> int:
        return self.source_m.shape[0]


def build_multiplier(M: np.ndarray, band: SlopeBand) -> Multiplier:
    """Assemble the multiplier for matrix M on the given slope band."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got {M.shape}")
    m = M.shape[0]
    eye = np.eye(m)
    V = np.block([[band.nu * eye, -eye], [-band.mu * eye, eye]])
    K = np.block([[np.zeros((m, m)), M], [M.T, np.zeros((m, m))]])
    pi_raw = V.T @ K @ V
    pi = symmetrize(pi_raw)
    scale = np.linalg.norm(pi, "fro")
    asym = np.linalg.norm(pi_raw - pi_raw.T, "fro")
    if scale > 0 and asym > 1e-14 * scale:
        raise AssertionError(f"multiplier asymmetry {asym:.3e} exceeds roundoff budget")
    return Multiplier(pi=pi, source_m=M, band=band)
