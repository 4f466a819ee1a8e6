"""Brute-force validators kept independent of the code they check.

These helpers recompute everything from raw definitions (difference
quotients, explicit congruence products, the dual's dynamics and coupling
blocks, entrywise cone arithmetic) so the
test suite can cross-examine the production modules.  They intentionally do
not call into the multiplier or LMI assembly code, except probe_per_coordinate,
which reads a primal's constraint callables the slow way, one unbatched
evaluation per decision coordinate, as the reference for the batched read.
unscaled_max_step is the interior-point step length in the original
coordinates, the reference for the step length taken in scaled ones.
"""

from typing import Callable, NamedTuple

import numpy as np

from lurestab.conic import ConeSpec, smat
from lurestab.engine import _CONSTRAINT_STRUCTURE, _from_coords, _scalarize, build_dual, solve
from lurestab.lmi import build_primal
from lurestab.system import SlopeBand, StateSpaceSystem

__all__ = [
    "DualityAuditReport",
    "MultiplierAudit",
    "SlopeSample",
    "audit_duality",
    "audit_multiplier_inequality",
    "output_coupling_block",
    "probe_per_coordinate",
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
    primal = solve(build_primal(sys))
    dual = solve(build_dual(primal))
    margin = primal.residuals.margin if primal.residuals.margin is not None else -np.inf
    primal_decisive = primal.status == "feasible" and margin >= 1e-7
    dual_decisive = dual.status == "feasible"
    return DualityAuditReport(
        primal_margin=float(margin),
        primal_decisive=primal_decisive,
        dual_status=dual.status,
        dual_decisive=dual_decisive,
        exclusive=not (primal_decisive and dual_decisive),
    )


def probe_per_coordinate(form) -> np.ndarray:
    """F of a primal's dense form (engine._Inequality), column by column.

    Each column is the scalarized constraints at one coordinate basis
    vector e_k of the decision variables, minus their value at zero, from
    unbatched evaluations only.
    """
    zero = form.problem.zero_assignment()

    def evaluate(assign):
        return np.concatenate([
            _scalarize(con.fn(assign), _CONSTRAINT_STRUCTURE[con.cone])
            for con, _, _ in form.blocks
        ])

    base = evaluate(zero)
    out = np.zeros((base.size, form.F.shape[1]))
    for v, sl in form.var_slices:
        nc = sl.stop - sl.start
        for k in range(nc):
            coords = np.zeros(nc)
            coords[k] = 1.0
            assign = dict(zero)
            assign[v.name] = _from_coords(v.kind, coords, v.dim)
            out[:, sl.start + k] = evaluate(assign) - base
    return out


def unscaled_max_step(cone: ConeSpec, x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha dx in the closed cone, for x interior.

    A PSD block with X = L L^T allows alpha up to -1 / (least eigenvalue of
    L^{-1} dX L^{-T}) when that eigenvalue is negative; an orthant block up
    to the least -x_i / dx_i over dx_i < 0.
    """
    alpha = np.inf
    for tag, size, sl in cone.slices():
        if tag == "s":
            Linv = np.linalg.inv(np.linalg.cholesky(smat(x[sl], size)))
            M = Linv @ smat(dx[sl], size) @ Linv.T
            least = np.linalg.eigvalsh(0.5 * (M + M.T))[0]
            if least < 0:
                alpha = min(alpha, -1.0 / least)
        else:
            neg = dx[sl] < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-x[sl][neg] / dx[sl][neg])))
    return alpha
