"""Certificate extraction and destabilizing nonlinearity construction.

Turns the rank-one factor h of a feasible dual point's H = h h^T, which
engine.reduce_rank decides and returns, into explicit instability data:
h splits into a nonzero equilibrium candidate h1 and the input w* = h2
(fit takes any such pair, a known equilibrium input's too), the output is
z* = C h1 + D h2, and a piecewise-linear map interpolating (z*_i, w*_i)
(plus mirrored points in the odd case) is slope-restricted on [0, 1] and
keeps h1 fixed under the closed loop.  Every function here takes the
normalized loop and reads all it needs off it: the matrices, the band
[0, 1] and the class, odd or not.

In the order of z*, each pair of consecutive map nodes gives two rows,
linear in w, that hold exactly when their segment's slope lies in the band.
Where solver rounding leaves a segment a hair outside it, w* is projected
onto the rows it violates (snap_to_band); no solve is involved.  Whether
h1 is zero is one test, equilibria.zero_state, at both the degenerate gate
and the projection.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .equilibria import equilibrium_maps, zero_state
from .errors import CertificateInconsistentError, InternalContradictionError
from .linalg import spectral_norm
from .pwl import PiecewiseLinearMap
from .system import NonlinearityClass, StateSpaceSystem

__all__ = ["DualCertificate", "Inconclusive", "build_pwl", "extract_certificate", "fit",
           "snap_to_band"]

# The sign gate tolerates min (A h1 + B h2) * h1 down to -_SIGN_TOL ||h1||^2.
_SIGN_TOL = 1.0e-9


@dataclass(frozen=True)
class DualCertificate:
    """Instability evidence read off a rank-1 dual solution.

    h = (h1, h2) is the factor of H: h1 the equilibrium candidate, h2 the
    loop input w* there and z_star = C h1 + D h2 the output.  snapped counts
    the order rows snap_to_band projected w* onto, each of which puts one
    map segment on a band edge or levels a pair the map merges.
    """

    h1: np.ndarray
    h2: np.ndarray
    z_star: np.ndarray
    snapped: int = 0


@dataclass(frozen=True)
class Inconclusive:
    """The dual solution did not yield a certificate; reason says why.

    reason is one of "rank" (H is not rank one), "sign" (the proof's
    dichotomy resolved to the branch with no conclusion), or "degenerate"
    (h1 vanished on a loop where the nonvanishing argument does not apply).
    """

    reason: str
    detail: str = ""


def extract_certificate(sys: StateSpaceSystem, h: Optional[np.ndarray]):
    """Apply the degenerate and sign gates to h, the rank-one factor of a
    feasible dual point's H (engine.reduce_rank's SolveResult.factor), or
    None where H is not rank one, which is Inconclusive "rank".

    Returns a DualCertificate, or Inconclusive when one of the theorem's
    hypotheses fails numerically.  A zero state h1 (equilibria.zero_state
    of h1 and h2) raises an internal contradiction when ||D|| < 1 (the
    nonvanishing proof applies there, so it can only mean a solver or
    assembly defect); otherwise it is reported as inconclusive.  A factor
    that passes every gate becomes the certificate through fit.
    """
    if h is None:
        return Inconclusive("rank", "the dual point's H is not rank one")
    h1, h2 = h[:sys.n], h[sys.n:]
    if zero_state(h1, h2):
        if spectral_norm(sys.D) < 1.0:
            raise InternalContradictionError(
                "dual factor has vanishing state part although ||D|| < 1 "
                "guarantees a nonzero equilibrium; solver or assembly defect"
            )
        return Inconclusive(
            "degenerate", "state part of the factor vanishes; no equilibrium argument"
        )

    # the same for both signs of the factor
    sign_min = float(np.min((sys.A @ h1 + sys.B @ h2) * h1))
    if sign_min < -_SIGN_TOL * float(np.linalg.norm(h1)) ** 2:
        return Inconclusive(
            "sign",
            f"diagonal sign condition fails by {sign_min:.3e}; "
            "the dichotomy resolves to the branch with no conclusion",
        )
    return fit(sys, h1, h2)


def _signed(h1: np.ndarray, w: np.ndarray):
    """(h1, w), both negated where h1's entry of largest magnitude is
    negative, so that both signs of a witness give one certificate."""
    if h1[int(np.argmax(np.abs(h1)))] < 0:
        return -h1, -w
    return h1, w


def fit(sys: StateSpaceSystem, h1: np.ndarray, w: np.ndarray) -> DualCertificate:
    """The certificate of state h1 and input w of the normalized loop sys:
    signed (_signed), with z* = C h1 + D w, and w fitted to the band of
    sys's class (snap_to_band)."""
    h1, w = _signed(h1, w)
    return snap_to_band(sys, DualCertificate(h1, w, sys.C @ h1 + sys.D @ w))


def _merge_pairs(pairs, tol):
    """Deduplicate (z, w) pairs in the order of z; w must agree within groups.

    A group keeps its first node, or the exact origin when it holds one.
    """
    merged = []
    for z, w in sorted(pairs, key=lambda p: p[0]):
        if merged and abs(z - merged[-1][0]) <= tol:
            zr, wr = merged[-1]
            if abs(w - wr) > tol:
                raise CertificateInconsistentError(
                    f"duplicate output value z = {zr:.6g} maps to both "
                    f"{wr:.6g} and {w:.6g}; no map interpolates both"
                )
            if z == 0.0 and w == 0.0:
                merged[-1] = (z, w)  # prefer the exact origin node
            continue
        merged.append((z, w))
    return merged


def _merge_tol(z: np.ndarray) -> float:
    """Nodes whose z values agree within this are one node of the map."""
    return 1.0e-7 * max(1.0, float(np.linalg.norm(z)))


def _folds(z: np.ndarray, odd: bool) -> np.ndarray:
    """Signs s_i that fold the odd class's points s_i (z*_i, w*_i) onto z >= 0."""
    return np.where(odd & (z < 0), -1.0, 1.0)


def build_pwl(sys: StateSpaceSystem, cert: DualCertificate) -> PiecewiseLinearMap:
    """Interpolate the certificate data into a destabilizing map of sys's
    class.

    Non-odd: breakpoints are the deduplicated (z, w) pairs plus the origin,
    sorted by z.  Odd: pairs are folded onto z >= 0 first (negating both
    coordinates), merged, then mirrored exactly, which makes antisymmetry
    hold to the last bit.  Nodes whose z values agree within
    1e-7 * max(1, ||z*||) must carry matching w values, otherwise
    CertificateInconsistentError is raised.
    """
    odd = sys.nl_class is NonlinearityClass.SLOPE_ODD
    s = _folds(cert.z_star, odd)
    pts = _merge_pairs(
        [(0.0, 0.0)] + list(zip(s * cert.z_star, s * cert.h2)), _merge_tol(cert.z_star)
    )
    if odd:
        pos = [(zi, wi) for zi, wi in pts if zi > 0.0]
        pts = [(-zi, -wi) for zi, wi in reversed(pos)] + [(0.0, 0.0)] + pos
    return PiecewiseLinearMap(breakpoints=np.asarray(pts, dtype=float), odd=odd)


def snap_to_band(sys: StateSpaceSystem, cert: DualCertificate) -> DualCertificate:
    """Project w* onto the order rows it violates.

    Keep the map's nodes -- the origin and the points (z*_i, w*_i), folded
    as s_i (z*_i, w*_i) where sys's class is odd -- in the order of z*.
    Every segment slope then lies in [0, 1] exactly when each consecutive
    difference has dw >= 0 and dz - dw >= 0, and with h1 = F w
    and z = G w (equilibria.equilibrium_maps), these rows are linear in w.
    Solver rounding leaves a segment that truly lies on a band edge (such
    as a flat segment between two channels with w*_i = -w*_j) a hair
    outside the band, so rows negative at the witness's own (z*, w*) are
    violated.  A pair that build_pwl merges into one node has no segment:
    its rows are dw >= 0 and -dw >= 0, violated only where its w differ by
    more than the merge tolerance (such as a channel with z*_i = 0 and w*_i
    at rounding level, merged with the origin).  w* is projected onto the
    null space of the violated rows, a row the projection violates is added
    until none is, and h1 and z* are recomputed.  A witness that violates
    no row is returned unchanged, and so is one whose projection has a zero
    state (equilibria.zero_state).
    """
    s = _folds(cert.z_star, sys.nl_class is NonlinearityClass.SLOPE_ODD)
    # the rows as forms Kw w + Kz z, from the differences of the sorted
    # nodes; node 0 is the origin
    z = np.r_[0.0, s * cert.z_star]
    order = np.argsort(z, kind="stable")
    nodes = np.vstack([np.zeros_like(s), np.diag(s)])
    diff = np.diff(nodes[order], axis=0)
    # build_pwl merges a pair within its tolerance into one node, so the
    # pair has no segment: its rows are dw >= 0 and -dw >= 0, violated only
    # where its w differ by more than the tolerance
    tol = _merge_tol(cert.z_star)
    merged = np.diff(z[order]) <= tol
    Kw, Kz = np.vstack([diff, -diff]), np.vstack([np.zeros_like(diff), diff * ~merged[:, None]])
    slack = np.tile(np.where(merged, tol, 0.0), 2)
    rows = Kw @ cert.h2 + Kz @ cert.z_star < -slack
    if not rows.any():
        return cert
    F, G = equilibrium_maps(sys)
    R = Kw + Kz @ G
    new = rows
    while new.any():
        E = R[rows]
        _, sig, Vt = np.linalg.svd(E)
        N = Vt[int(np.sum(sig > max(E.shape) * np.finfo(float).eps * sig[0])):].T
        w = N @ (N.T @ cert.h2)
        h1 = F @ w
        new = (Kw @ w + Kz @ (sys.C @ h1 + sys.D @ w) < -slack) & ~rows
        rows |= new
    if zero_state(h1, w):
        return cert
    h1, w = _signed(h1, w)
    return replace(cert, h1=h1, h2=w, z_star=sys.C @ h1 + sys.D @ w, snapped=int(rows.sum()))
