"""Brute-force validators kept independent of the code they check.

These helpers recompute everything from raw definitions (difference
quotients, explicit congruence products, the dual's dynamics and coupling
blocks, entrywise cone arithmetic) so the
test suite can cross-examine the production modules.  They intentionally do
not call into the LMI assembly code; primal_constraints writes every
constraint of the primal from the paper's definitions, with the multiplier
in its Pi form (multipliers.build_multiplier), as the reference for the
rows build_primal writes from the structure.  dense_dual_rows forms -F^T,
the raw rows of the IPM's pair, by evaluating L (lmi._lmi_matrix, itself
tested against the Pi form) at every unit coordinate, as the dense
reference for the rows engine._LmiGram takes through the congruence.
unscaled_max_step is the interior-point step length in the original
coordinates, the reference for the step length taken in scaled ones.
has_equilibrium_exactly decides, in integer arithmetic and order by order,
whether some map of the class gives a loop a nonzero equilibrium.
"""

import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from lurestab.conic import ConeSpec, smat, svec
from lurestab.engine import build_dual, reduce_rank, solve
from lurestab.lmi import SdpFeasibilityProblem, _lmi_matrix, build_primal
from lurestab.multipliers import build_multiplier
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem

__all__ = [
    "DualityAuditReport",
    "MultiplierAudit",
    "SlopeSample",
    "audit_duality",
    "audit_multiplier_inequality",
    "dense_dual_rows",
    "has_equilibrium_exactly",
    "output_coupling_block",
    "primal_constraints",
    "sample_slope_fn",
    "state_equality_block",
    "unscaled_max_step",
]


class SlopeSample(NamedTuple):
    """A sampled scalar map plus the data needed for an exact slope audit."""

    phi: Callable[[np.ndarray], np.ndarray]
    grid: np.ndarray
    values: np.ndarray
    tail_slopes: tuple[float, float]
    odd: bool


def _piecewise_eval(z, grid, values, tail_slopes):
    z = np.asarray(z, dtype=float)
    out = np.interp(z, grid, values)
    sl, sr = tail_slopes
    left = z < grid[0]
    right = z > grid[-1]
    out = np.where(left, values[0] + sl * (z - grid[0]), out)
    out = np.where(right, values[-1] + sr * (z - grid[-1]), out)
    return out


def sample_slope_fn(band: SlopeBand, seed: int, odd: bool = False) -> SlopeSample:
    """Random piecewise-linear phi with phi(0) = 0 and slopes in [mu, nu].

    Every linear segment, including the two unbounded tails, gets a slope
    drawn uniformly from the band, so every difference quotient lies in
    [mu, nu] (each quotient is a convex combination of segment slopes).
    With odd=True the map is symmetrized to (phi(z) - phi(-z))/2, which is
    odd and keeps all quotients inside the band.
    """
    rng = np.random.default_rng(seed)
    k_pos = int(rng.integers(1, 5))
    k_neg = int(rng.integers(1, 5))
    pos = np.cumsum(rng.uniform(0.2, 1.5, size=k_pos))
    neg = -np.cumsum(rng.uniform(0.2, 1.5, size=k_neg))[::-1]
    grid = np.concatenate([neg, [0.0], pos])

    n_seg = grid.size - 1
    seg_slopes = rng.uniform(band.mu, band.nu, size=n_seg)
    tail_slopes = (
        float(rng.uniform(band.mu, band.nu)),
        float(rng.uniform(band.mu, band.nu)),
    )

    values = np.zeros_like(grid)
    zero_idx = k_neg
    for i in range(zero_idx, n_seg):
        values[i + 1] = values[i] + seg_slopes[i] * (grid[i + 1] - grid[i])
    for i in range(zero_idx - 1, -1, -1):
        values[i] = values[i + 1] - seg_slopes[i] * (grid[i + 1] - grid[i])

    if not odd:
        def phi(z, g=grid, v=values, t=tail_slopes):
            return _piecewise_eval(z, g, v, t)

        return SlopeSample(phi=phi, grid=grid, values=values, tail_slopes=tail_slopes, odd=False)

    sym_grid = np.unique(np.concatenate([grid, -grid]))
    base = lambda z: _piecewise_eval(z, grid, values, tail_slopes)
    sym_values = 0.5 * (base(sym_grid) - base(-sym_grid))
    tail = 0.5 * (tail_slopes[0] + tail_slopes[1])

    def phi_odd(z, g=sym_grid, v=sym_values, t=(tail, tail)):
        return _piecewise_eval(z, g, v, t)

    return SlopeSample(
        phi=phi_odd, grid=sym_grid, values=sym_values, tail_slopes=(tail, tail), odd=True
    )


class MultiplierAudit(NamedTuple):
    min_value: float
    min_normalized: float


def audit_multiplier_inequality(
    M: np.ndarray,
    band: SlopeBand,
    phi: Callable[[np.ndarray], np.ndarray],
    trials: int,
    seed: int,
) -> MultiplierAudit:
    """Sample the multiplier quadratic form directly from its definition.

    Uses the factored form 2 (nu*zeta - w)^T M (w - mu*zeta) with
    w = phi(zeta) elementwise, no shared code with the multiplier builder.
    Returns the smallest raw value and the smallest value normalized by
    ||M||_F * ||(zeta, w)||^2 per draw.
    """
    M = np.asarray(M, dtype=float)
    m = M.shape[0]
    rng = np.random.default_rng(seed)
    m_scale = float(np.linalg.norm(M, "fro"))
    min_value = np.inf
    min_normalized = np.inf
    for _ in range(trials):
        zeta = rng.normal(size=m) * rng.uniform(0.1, 3.0)
        w = np.asarray(phi(zeta), dtype=float)
        q = 2.0 * float((band.nu * zeta - w) @ M @ (w - band.mu * zeta))
        denom = max(1.0, m_scale * float(zeta @ zeta + w @ w))
        min_value = min(min_value, q)
        min_normalized = min(min_normalized, q / denom)
    return MultiplierAudit(min_value=min_value, min_normalized=min_normalized)


def state_equality_block(sys: StateSpaceSystem, H: np.ndarray) -> np.ndarray:
    """[A B] H [A B]^T - [I 0] H [I 0]^T, the dual's dynamics block."""
    n, m = sys.n, sys.m
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    return AB @ H @ AB.T - I0 @ H @ I0.T


def output_coupling_block(sys: StateSpaceSystem, H: np.ndarray) -> np.ndarray:
    """Y(H) = [0 I] H ([C D] - [0 I])^T, the matrix the dual couples to (f, g, X[, Z]).

    For a rank-1 H = (h1; h2)(h1; h2)^T it specializes to
    h2 (C h1 + D h2 - h2)^T.
    """
    n, m = sys.n, sys.m
    CD = np.hstack([sys.C, sys.D])
    OI = np.hstack([np.zeros((m, n)), np.eye(m)])
    return OI @ H @ (CD - OI).T


class DualityAuditReport(NamedTuple):
    primal_margin: float
    primal_decisive: bool
    dual_status: str
    dual_decisive: bool
    exclusive: bool


def audit_duality(sys: StateSpaceSystem, seed: int = 0) -> DualityAuditReport:
    """Run primal and dual solves independently; check they never both win.

    Only the weak direction is asserted: it must never happen that the
    primal margin clears its threshold AND the dual is decisively feasible.
    Borderline numerical_limit outcomes count as non-decisive.
    """
    form = build_dual(build_primal(sys))
    primal = solve(form)
    dual = reduce_rank(form, deflate=False)  # its status is read
    margin = primal.margin
    primal_decisive = primal.status == "feasible" and margin >= 1e-7
    dual_decisive = dual.status == "feasible"
    return DualityAuditReport(
        primal_margin=float(margin),
        primal_decisive=primal_decisive,
        dual_status=dual.status,
        dual_decisive=dual_decisive,
        exclusive=not (primal_decisive and dual_decisive),
    )


def _unit_values(v, ncoords: int) -> np.ndarray:
    """The value of each of a variable's unit coordinates, read as a matrix
    (a vector as the diagonal of one): smat of e_k for "sym", and one entry
    1, row-major off the diagonal for "hollow"."""
    if v.kind == "sym":
        return smat(np.eye(ncoords), v.dim)
    cells = [(i, j) for i in range(v.dim) for j in range(v.dim)
             if (i == j) == (v.kind == "vector")]
    units = np.zeros((ncoords, v.dim, v.dim))
    for k, (i, j) in enumerate(cells):
        units[k, i, j] = 1.0
    return units


def dense_dual_rows(problem: SdpFeasibilityProblem) -> np.ndarray:
    """-F^T, formed: row i holds decision coordinate i's coefficients in
    every constraint row.  On the LMI block those are svec of L at the unit
    coordinate (P or M = M_diag + M_offdiag set to it, the other zero), and
    I for the margin t of -L - t I; after it, the incidence rows
    build_primal writes."""
    congruence = problem.meta["congruence"]
    (lmi, lmi_rows) = problem.constraints[0]
    n = next(v.dim for v, _ in problem.variables if v.name == "P")
    m = lmi.dim - n
    blocks = []
    for v, sl in problem.variables:
        units = _unit_values(v, sl.stop - sl.start)
        if v.name == "P":
            block = svec(_lmi_matrix(congruence, units, np.zeros((m, m))))
        elif v.name in congruence["terms"]:
            block = svec(_lmi_matrix(congruence, np.zeros((n, n)), units))
        elif v.name == congruence["identity"]:
            block = svec(np.eye(lmi.dim))[None, :]
        else:
            block = np.zeros((sl.stop - sl.start, lmi_rows.stop))
        blocks.append(np.hstack([block, -problem.F_incidence[:, sl].T]))
    return np.vstack(blocks)


def primal_constraints(sys: StateSpaceSystem, v: dict) -> dict:
    """Every constraint of the max-margin primal at the assignment v, by name.

    lmi_margin is -L(P, M) - t I with L in the paper's form
    [A B]^T P [A B] - [I 0]^T P [I 0] + [C D; 0 I]^T Pi [C D; 0 I] and
    M = diag(M_diag) + M_offdiag; then the row and column sums and the sign
    conditions of the DHD cone, or of the DD cone through M_abs.  The hollow constraints are matrices, read off the diagonal.
    """
    n, m = sys.n, sys.m
    P, d, off, t = v["P"], v["M_diag"], v["M_offdiag"], v["t"][0]
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    W = np.vstack([np.hstack([sys.C, sys.D]), np.hstack([np.zeros((m, n)), np.eye(m)])])
    pi = build_multiplier(np.diag(d) + off, sys.band).pi
    L = AB.T @ P @ AB - I0.T @ P @ I0 + W.T @ pi @ W
    out = {"lmi_margin": -L - t * np.eye(n + m)}
    if sys.nl_class is NonlinearityClass.SLOPE_ODD:
        M_abs = v["M_abs"]
        out.update({
            "row_sums": d - M_abs.sum(axis=1),
            "col_sums": d - M_abs.sum(axis=0),
            "dom_hi": M_abs - off,
            "dom_lo": M_abs + off,
        })
    else:
        out.update({
            "row_sums": d + off.sum(axis=1),
            "col_sums": d + off.sum(axis=0),
            "m_offdiag_nonpos": -off,
        })
    return out


def unscaled_max_step(cone: ConeSpec, x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha dx in the closed cone, for x interior.

    The PSD block with X = L L^T allows alpha up to -1 / (least eigenvalue
    of L^{-1} dX L^{-T}) when that eigenvalue is negative; the orthant up
    to the least -x_i / dx_i over dx_i < 0.
    """
    alpha = np.inf
    psd, orth = cone.psd, cone.orthant
    Linv = np.linalg.inv(np.linalg.cholesky(smat(x[psd], cone.d)))
    M = Linv @ smat(dx[psd], cone.d) @ Linv.T
    least = np.linalg.eigvalsh(0.5 * (M + M.T))[0]
    if least < 0:
        alpha = -1.0 / least
    neg = dx[orth] < 0
    if np.any(neg):
        alpha = min(alpha, float(np.min(-x[orth][neg] / dx[orth][neg])))
    return alpha


def _exact_transfer(sys: StateSpaceSystem) -> list:
    """G = C (I - A)^{-1} B + D in Fractions, exact from the plant's floats,
    by Gauss-Jordan elimination of [I - A | B]."""
    n, m = sys.n, sys.m
    A, B, C, D = ([[Fraction(float(x)) for x in row] for row in M] for M in (sys.A, sys.B, sys.C, sys.D))
    aug = [[int(i == j) - A[i][j] for j in range(n)] + B[i] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    X = [row[n:] for row in aug]
    return [[sum((C[i][k] * X[k][j] for k in range(n)), D[i][j]) for j in range(m)]
            for i in range(m)]


def _null_vector(rows: list, m: int) -> tuple:
    """v with r . v = 0 for each of the m - 1 rows: the signed maximal
    minors, expanded along the rows from the last."""
    minors = {(): 1}
    for k, row in enumerate(reversed(rows), 1):
        minors = {
            cols: sum((-1) ** a * row[c] * minors[cols[:a] + cols[a + 1:]] for a, c in enumerate(cols))
            for cols in itertools.combinations(range(m), k)
        }
    return tuple((-1) ** j * minors[cols] for j, cols in
                 enumerate(reversed(list(itertools.combinations(range(m), m - 1)))))


def _up_to_sign(row: tuple) -> tuple:
    return row if next((x for x in row if x), 0) >= 0 else tuple(-x for x in row)


def has_equilibrium_exactly(sys: StateSpaceSystem) -> bool:
    """Whether some slope-[0, 1] map of sys's class gives the loop sys a
    nonzero equilibrium, decided exactly.

    An equilibrium input w has outputs z = G w.  Fix an order of the map's
    nodes: the origin and the (z_i, w_i), or for the odd class the origin
    first and then the channels folded by signs s_i, (s_i z_i, s_i w_i).  A
    map through them exists exactly when every consecutive pair has
    dw >= 0 and dz - dw >= 0, a cone K w >= 0 whose nonzero points are the
    equilibria of that order.  Its dw rows have full rank, so the cone is
    pointed, and it is nonzero exactly when some extreme ray is: the null
    vector of m - 1 of its rows.  Every order is tried, one of each order
    and its reverse (or its sign flip) with both signs of each ray, in
    integers: the rows are scaled by the common denominator of G.
    """
    m = sys.m
    odd = sys.nl_class is NonlinearityClass.SLOPE_ODD
    G = _exact_transfer(sys)
    den = math.lcm(*(g.denominator for row in G for g in row))
    # node rows as functionals of w: w_i and den (z_i - w_i); node -1 is the origin
    zero = (0,) * m
    w_row = {-1: zero, **{i: tuple(int(i == j) for j in range(m)) for i in range(m)}}
    q_row = {-1: zero, **{i: tuple(int(G[i][j] * den) - den * (i == j) for j in range(m))
                          for i in range(m)}}
    if odd:
        orders = [
            ((-1, *p), (1, *s))
            for p in itertools.permutations(range(m))
            for s in itertools.product((1, -1), repeat=m) if s[p.index(0)] == 1
        ]
    else:
        orders = [(p, (1,) * (m + 1)) for p in itertools.permutations(range(-1, m)) if p[0] < p[-1]]
    rays = {}
    for nodes, signs in orders:
        K = []
        for table in (w_row, q_row):
            at = [tuple(s * x for x in table[i]) for i, s in zip(nodes, signs)]
            K += [tuple(y - x for x, y in zip(a, b)) for a, b in zip(at, at[1:])]
        for sub in itertools.combinations(map(_up_to_sign, K), m - 1):
            key = tuple(sorted(sub))
            if key not in rays:
                rays[key] = _null_vector(key, m)
            v = rays[key]
            seen = set()
            for r in K:
                dot = sum(x * y for x, y in zip(r, v))
                seen.add((dot > 0) - (dot < 0))
                if {1, -1} <= seen:
                    break
            else:
                if seen != {0}:
                    return True
    return False
