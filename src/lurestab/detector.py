"""Certificate extraction and destabilizing nonlinearity construction.

Turns a feasible rank-reduced dual solution into explicit instability data:
the factor h of H = h h^T splits into a nonzero equilibrium candidate h1 and
the input w* = h2, the output is z* = C h1 + D h2, and a piecewise-linear
map interpolating (z*_i, w*_i) (plus mirrored points in the odd case) is
slope-restricted on [0, 1] and keeps h1 fixed under the closed loop.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    CertificateInconsistentError,
    InternalContradictionError,
    StructuralError,
)
from .linalg import numerical_rank_and_factor, spectral_norm
from .pwl import PiecewiseLinearMap
from .system import NonlinearityClass, SlopeBand, StateSpaceSystem

__all__ = ["DualCertificate", "Inconclusive", "build_pwl", "extract_certificate", "snap_to_band"]

# Segments whose slope lies this close to mu or nu are taken to sit on that
# band edge exactly when a witness is snapped (snap_to_band).
SNAP_WINDOW = 1.0e-5


@dataclass(frozen=True)
class DualCertificate:
    """Instability evidence assembled from a rank-1 dual solution.

    snapped counts the map segments snap_to_band put on a band edge.
    """

    H: np.ndarray
    f: np.ndarray
    g: np.ndarray
    X: np.ndarray
    Z: Optional[np.ndarray]
    rank: int
    h1: np.ndarray
    h2: np.ndarray
    z_star: np.ndarray
    w_star: np.ndarray
    snapped: int = 0

    @property
    def h(self) -> np.ndarray:
        return np.concatenate([self.h1, self.h2])


@dataclass(frozen=True)
class Inconclusive:
    """The dual solution did not yield a certificate; reason says why.

    reason is one of "rank" (numerical rank above one), "sign" (the proof's
    dichotomy resolved to the branch with no conclusion), or "degenerate"
    (h1 vanished on a loop where the nonvanishing argument does not apply).
    """

    reason: str
    detail: str = ""


def extract_certificate(
    sys: StateSpaceSystem,
    solve_result,
    nl_class: NonlinearityClass,
    rank_rel_tol: float = 1.0e-6,
    sign_tol: float = 1.0e-9,
):
    """Apply the rank and sign gates to a feasible dual solution.

    Returns a DualCertificate, or Inconclusive when one of the theorem's
    hypotheses fails numerically.  A vanishing h1 raises an internal
    contradiction when ||D|| < 1 (the nonvanishing proof applies there, so
    it can only mean a solver or assembly defect); otherwise it is reported
    as inconclusive.  A certificate that passes every gate is snapped onto
    the band edges its map nearly touches (snap_to_band).
    """
    assignment = solve_result.assignment
    if "H" not in assignment:
        raise StructuralError("solve result carries no H block")
    want_z = nl_class is NonlinearityClass.SLOPE_ODD
    if want_z != ("Z" in assignment):
        raise StructuralError("dual kind does not match the nonlinearity class")

    H = np.asarray(assignment["H"], dtype=float)
    rank, V = numerical_rank_and_factor(H, rel_tol=rank_rel_tol)
    if rank != 1:
        return Inconclusive("rank", f"numerical rank {rank}")
    h = V[:, 0]
    n = sys.n
    h1, h2 = h[:n], h[n:]
    norm_h = float(np.linalg.norm(h))
    norm_h1 = float(np.linalg.norm(h1))
    if norm_h1 <= 1.0e-9 * norm_h:
        if spectral_norm(sys.D) < 1.0:
            raise InternalContradictionError(
                "dual factor has vanishing state part although ||D|| < 1 "
                "guarantees a nonzero equilibrium; solver or assembly defect"
            )
        return Inconclusive(
            "degenerate", "state part of the factor vanishes; no equilibrium argument"
        )

    # sign canonicalization: make the dominant state entry positive so both
    # factor signs produce the same certificate
    pick = int(np.argmax(np.abs(h1)))
    if h1[pick] < 0:
        h = -h
        h1, h2 = h[:n], h[n:]

    v = sys.A @ h1 + sys.B @ h2
    sign_min = float(np.min(v * h1))
    if sign_min < -sign_tol * norm_h1 ** 2:
        return Inconclusive(
            "sign",
            f"diagonal sign condition fails by {sign_min:.3e}; "
            "the dichotomy resolves to the branch with no conclusion",
        )

    z_star = sys.C @ h1 + sys.D @ h2
    cert = DualCertificate(
        H=H,
        f=np.asarray(assignment["f"], dtype=float),
        g=np.asarray(assignment["g"], dtype=float),
        X=np.asarray(assignment["X"], dtype=float),
        Z=np.asarray(assignment["Z"], dtype=float) if "Z" in assignment else None,
        rank=1,
        h1=h1,
        h2=h2,
        z_star=z_star,
        w_star=h2.copy(),
    )
    return snap_to_band(sys, cert, nl_class is NonlinearityClass.SLOPE_ODD)


def _merge_pairs(pairs, tol):
    """Deduplicate (z, w, label) pairs; w must agree within groups.

    label names the witness entry behind a node, None for the origin.  A
    group keeps its first node, or the exact origin when it holds one.
    """
    pairs = sorted(pairs, key=lambda p: (p[0], p[2] is not None))
    merged = []
    for z, w, label in pairs:
        if merged and abs(z - merged[-1][0]) <= tol:
            zr, wr, label_r = merged[-1]
            if abs(w - wr) > tol:
                raise CertificateInconsistentError(
                    f"duplicate output value z = {zr:.6g} maps to both "
                    f"{wr:.6g} and {w:.6g}; no map interpolates both"
                )
            if label is None:
                merged[-1] = (z, w, label)  # prefer the exact origin node
            continue
        merged.append((z, w, label))
    return merged


def _nodes(z: np.ndarray, w: np.ndarray, odd: bool):
    """Merged (z, w, label) nodes of the map, sorted by z, origin included.

    label is (channel, sign) with (z, w) = sign * (z*_i, w*_i), or None for
    the origin.  For the odd class these are the nodes folded onto z >= 0;
    the mirrored half repeats their slopes.
    """
    tol = 1.0e-7 * max(1.0, float(np.linalg.norm(z)))
    pairs = [(0.0, 0.0, None)]
    for i, (zi, wi) in enumerate(zip(z, w)):
        sign = -1.0 if odd and zi < 0 else 1.0
        pairs.append((sign * float(zi), sign * float(wi), (i, sign)))
    return _merge_pairs(pairs, tol)


def build_pwl(cert: DualCertificate, odd: bool) -> PiecewiseLinearMap:
    """Interpolate the certificate data into a destabilizing map.

    Non-odd: breakpoints are the deduplicated (z, w) pairs plus the origin,
    sorted by z.  Odd: pairs are folded onto z >= 0 first (negating both
    coordinates), merged, then mirrored exactly, which makes antisymmetry
    hold to the last bit.  Nodes whose z values agree within
    1e-7 * max(1, ||z*||) must carry matching w values, otherwise
    CertificateInconsistentError is raised.
    """
    pts = [(zi, wi) for zi, wi, _ in _nodes(cert.z_star, cert.w_star, odd)]
    if odd:
        pos = [(zi, wi) for zi, wi in pts if zi > 0.0]
        pts = [(-zi, -wi) for zi, wi in reversed(pos)] + [(0.0, 0.0)] + pos
    return PiecewiseLinearMap(breakpoints=np.asarray(pts, dtype=float), odd=odd)


def _band_excess(phi: PiecewiseLinearMap, band: SlopeBand) -> float:
    """How far the map's steepest and flattest segments leave [mu, nu]."""
    slopes = phi.segment_slopes()
    if not slopes.size:
        return 0.0
    return max(band.mu - float(np.min(slopes)), float(np.max(slopes)) - band.nu, 0.0)


def snap_to_band(sys: StateSpaceSystem, cert: DualCertificate, odd: bool) -> DualCertificate:
    """Put segments that nearly touch a band edge exactly on it.

    Solver rounding leaves a segment that truly lies on mu or nu (such as
    a flat segment between two channels with w*_i = -w*_j) a hair outside
    the band.  Every equilibrium has h1 = (I - A)^{-1} B w* and z* = C h1 +
    D w*, so fixing a consecutive pair of nodes (origin included) to slope
    mu or nu is a homogeneous linear equation in w*.  w* is projected onto
    the null space of these equations, h1 and z* are recomputed, and the
    snapped certificate is kept only when its map lies closer to the band.
    A map already inside the band at zero tolerance is returned unchanged.
    """
    band = sys.band
    excess = _band_excess(build_pwl(cert, odd), band)
    if excess == 0.0:
        return cert

    n, m = sys.n, sys.m
    F = np.linalg.solve(np.eye(n) - sys.A, sys.B)  # h1 = F w*
    G1 = sys.C @ F + sys.D  # z* = G1 w*

    def node_rows(label):
        """Coefficient rows of the node's (z, w) as linear forms in w*."""
        if label is None:
            return np.zeros(m), np.zeros(m)
        i, sign = label
        e = np.zeros(m)
        e[i] = sign
        return sign * G1[i], e

    nodes = _nodes(cert.z_star, cert.w_star, odd)
    snaps, rows = [], []
    for (za, wa, la), (zb, wb, lb) in zip(nodes, nodes[1:]):
        slope = (wb - wa) / (zb - za)
        edge = next((e for e in (band.mu, band.nu) if abs(slope - e) <= SNAP_WINDOW), None)
        if edge is None:
            continue
        gz_a, ew_a = node_rows(la)
        gz_b, ew_b = node_rows(lb)
        rows.append((ew_b - ew_a) - edge * (gz_b - gz_a))
        snaps.append((la, lb, edge))
    if not snaps:
        return cert

    E = np.asarray(rows)
    _, sig, Vt = np.linalg.svd(E)
    rank = int(np.sum(sig > max(E.shape) * np.finfo(float).eps * sig[0]))
    N = Vt[rank:].T
    w_new = N @ (N.T @ cert.w_star)
    # a flat segment says two nodes carry the same w; copy it so the slope
    # is exactly zero rather than zero up to the projection's rounding
    for la, lb, edge in snaps:
        if edge == 0.0:
            src, dst = (la, lb) if lb is not None else (lb, la)
            value = 0.0 if src is None else src[1] * w_new[src[0]]
            w_new[dst[0]] = dst[1] * value
    h1 = F @ w_new
    if float(np.linalg.norm(h1)) <= 1.0e-9 * float(np.linalg.norm(cert.h)):
        return cert
    if h1[int(np.argmax(np.abs(h1)))] < 0:
        h1, w_new = -h1, -w_new
    snapped = replace(
        cert, h1=h1, h2=w_new, z_star=sys.C @ h1 + sys.D @ w_new,
        w_star=w_new.copy(), snapped=len(snaps),
    )
    try:
        closer = _band_excess(build_pwl(snapped, odd), band) < excess
    except CertificateInconsistentError:
        closer = False
    return snapped if closer else cert
