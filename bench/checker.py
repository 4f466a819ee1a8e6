"""Independent check of one `analyze` verdict, from the paper's definitions.

The checker reads the plant as plain arrays and the report as parsed JSON,
and imports nothing from the program under test.

absolutely_stable: the report's (P, M) must satisfy

    L(P, M) = [A B]^T P [A B] - [I 0]^T P [I 0] + [C D; 0 I]^T Pi [C D; 0 I]

negative definite, with the O'Shea-Zames-Falb multiplier
Pi = V^T [[0, M], [M^T, 0]] V, V = [[nu I, -I], [-mu I, I]], M doubly
hyperdominant (doubly dominant for the odd class), and P positive definite.
M may sit outside its cone by rounding (CONE_TOL); it is then moved onto the
cone by adding the deficit to its diagonal and clearing positive
off-diagonal entries, and the inequality is checked for the repaired M.

not_absolutely_stable: one algebraic step, no simulation.  With
w* = report.dual.w_star and h1 = report.dual.h1, and phi interpolated here
from the report's breakpoints with flat tails:

    h1 != 0,  h1 = A h1 + B w*,  phi(C h1 + D w*) = w*,  phi(0) = 0,
    every segment slope in [mu, nu],  phi odd when the class is odd.

A nonzero equilibrium of the loop closed with a map of the class shows the
origin is not globally asymptotically stable.
"""

import numpy as np

EPS = np.finfo(float).eps
CONE_TOL = 1.0e-9  # relative to max |M|
EQ_TOL = 1.0e-9  # one-step residuals, relative to the size of the terms
SLOPE_TOL = 1.0e-9  # absolute, on segment slopes
ORIGIN_TOL = 1.0e-12  # relative to max |w| at the breakpoints


def _eigs(S):
    """Eigenvalues of the symmetric part, ascending."""
    return np.linalg.eigvalsh(0.5 * (S + S.T))


def _norm(S):
    return float(np.linalg.norm(S, 2)) if np.size(S) else 0.0


def multiplier(M, mu, nu):
    m = M.shape[0]
    eye = np.eye(m)
    V = np.block([[nu * eye, -eye], [-mu * eye, eye]])
    K = np.block([[np.zeros((m, m)), M], [M.T, np.zeros((m, m))]])
    return V.T @ K @ V


def lmi_matrix(case, P, M):
    """L(P, M) and a bound on the size of the terms it is summed from."""
    n, m = case.B.shape
    AB = np.hstack([case.A, case.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    outer = np.vstack([np.hstack([case.C, case.D]), np.hstack([np.zeros((m, n)), np.eye(m)])])
    Pi = multiplier(M, case.mu, case.nu)
    L = AB.T @ P @ AB - I0.T @ P @ I0 + outer.T @ Pi @ outer
    scale = (_norm(AB) ** 2 + 1.0) * _norm(P) + _norm(outer) ** 2 * _norm(Pi)
    return L, scale


def repair_multiplier(M, odd):
    """(M moved onto its cone, size of the move relative to max |M|)."""
    off = M - np.diag(np.diag(M))
    if odd:
        fixed = M.copy()
        absoff = np.abs(off)
        row, col = np.diag(M) - absoff.sum(axis=1), np.diag(M) - absoff.sum(axis=0)
        moved = 0.0
    else:
        pos = np.maximum(off, 0.0)
        fixed = M - pos
        row, col = fixed.sum(axis=1), fixed.sum(axis=0)
        moved = float(pos.max()) if pos.size else 0.0
    deficit = np.maximum(0.0, -np.minimum(row, col))
    fixed = fixed + np.diag(deficit)
    moved = max(moved, float(deficit.max()))
    return fixed, moved / max(1.0, float(np.abs(M).max()))


def check_stable(case, report):
    primal = report.get("primal") or {}
    if "P" not in primal or "M" not in primal:
        return ["stable verdict without P and M"]
    n, m = case.B.shape
    P = np.asarray(primal["P"], dtype=float)
    M = np.asarray(primal["M"], dtype=float)
    if P.shape != (n, n) or M.shape != (m, m):
        return [f"P {P.shape} or M {M.shape} has the wrong shape"]
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(M))):
        return ["P or M is not finite"]
    P = 0.5 * (P + P.T)
    problems = []
    M_cone, moved = repair_multiplier(M, case.odd)
    if moved > CONE_TOL:
        cone = "doubly dominant" if case.odd else "doubly hyperdominant"
        problems.append(f"M is outside the {cone} cone by {moved:.3e} (relative)")
    L, scale = lmi_matrix(case, P, M_cone)
    guard = 64.0 * EPS * L.shape[0] * scale
    lam = float(_eigs(L)[-1])
    if not lam < -guard:
        problems.append(f"lambda_max(L) = {lam:.3e} is not below -{guard:.3e}")
    p_min = float(_eigs(P)[0])
    if not p_min > 64.0 * EPS * n * _norm(P):
        problems.append(f"P is not positive definite: lambda_min = {p_min:.3e}")
    return problems


def interp(breakpoints, z):
    """The piecewise-linear map through the breakpoints, flat beyond them."""
    zs, ws = breakpoints[:, 0], breakpoints[:, 1]
    z = np.clip(np.atleast_1d(np.asarray(z, dtype=float)), zs[0], zs[-1])
    if zs.size == 1:
        return np.full(z.shape, ws[0])
    j = np.clip(np.searchsorted(zs, z, side="right") - 1, 0, zs.size - 2)
    t = (z - zs[j]) / (zs[j + 1] - zs[j])
    return ws[j] + t * (ws[j + 1] - ws[j])


def check_unstable(case, report):
    dual = report.get("dual") or {}
    phi = report.get("phi") or {}
    if "h1" not in dual or "w_star" not in dual or "breakpoints" not in phi:
        return ["instability verdict without h1, w_star and phi"]
    n, m = case.B.shape
    h1 = np.asarray(dual["h1"], dtype=float).reshape(-1)
    w = np.asarray(dual["w_star"], dtype=float).reshape(-1)
    bp = np.atleast_2d(np.asarray(phi["breakpoints"], dtype=float))
    if h1.shape != (n,) or w.shape != (m,) or bp.shape[1:] != (2,):
        return ["h1, w_star or the breakpoints have the wrong shape"]
    if not (np.all(np.isfinite(h1)) and np.all(np.isfinite(w)) and np.all(np.isfinite(bp))):
        return ["h1, w_star or the breakpoints are not finite"]
    zs, ws = bp[:, 0], bp[:, 1]
    if np.any(np.diff(zs) <= 0.0):
        return ["breakpoint z values are not strictly increasing"]

    problems = []
    nh1 = float(np.linalg.norm(h1))
    if not nh1 > 1.0e-9 * max(nh1, float(np.linalg.norm(w))):
        problems.append("h1 is zero")
    step = case.A @ h1 + case.B @ w
    size = _norm(case.A) * nh1 + _norm(case.B) * float(np.linalg.norm(w)) + nh1
    res = float(np.linalg.norm(step - h1))
    if res > EQ_TOL * size:
        problems.append(f"h1 = A h1 + B w* fails by {res:.3e} (terms {size:.3e})")
    z = case.C @ h1 + case.D @ w
    zsize = _norm(case.C) * nh1 + _norm(case.D) * float(np.linalg.norm(w))
    loop = float(np.max(np.abs(interp(bp, z) - w)))
    wsize = float(np.max(np.abs(ws))) + float(np.max(np.abs(w)))
    if loop > EQ_TOL * (wsize + zsize):
        problems.append(f"phi(C h1 + D w*) = w* fails by {loop:.3e}")
    wscale = max(float(np.max(np.abs(ws))), EPS)
    origin = abs(float(interp(bp, 0.0)[0]))
    if origin > ORIGIN_TOL * wscale:
        problems.append(f"phi(0) = {origin:.3e}, not 0")
    slopes = np.diff(ws) / np.diff(zs)
    if slopes.size and (slopes.min() < case.mu - SLOPE_TOL or slopes.max() > case.nu + SLOPE_TOL):
        problems.append(
            f"segment slopes [{slopes.min():.12g}, {slopes.max():.12g}] "
            f"leave the band [{case.mu}, {case.nu}]"
        )
    if case.odd:
        if not phi.get("odd", False):
            problems.append("odd class but phi is not declared odd")
        odd_defect = float(np.max(np.abs(interp(bp, -zs) + ws)))
        if odd_defect > ORIGIN_TOL * wscale:
            problems.append(f"phi is not odd: defect {odd_defect:.3e}")
    return problems


VERDICTS = ("absolutely_stable", "not_absolutely_stable", "inconclusive")


def check(case, report):
    """List of reasons the report's verdict does not hold; empty if it does."""
    verdict = report.get("verdict")
    if verdict not in VERDICTS:
        return [f"unknown verdict {verdict!r}"]
    if case.expect_verdict is not None and verdict != case.expect_verdict:
        return [f"verdict {verdict}, expected {case.expect_verdict}"]
    if verdict == "absolutely_stable":
        return check_stable(case, report)
    if verdict == "not_absolutely_stable":
        return check_unstable(case, report)
    return []
