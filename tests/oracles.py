"""Brute-force validators kept independent of the code they check.

These helpers recompute everything from raw definitions (difference
quotients, explicit congruence products, entrywise cone arithmetic) so the
test suite can cross-examine the production modules.  They intentionally do
not call into the multiplier or LMI assembly code.
"""

from typing import Callable, NamedTuple

import numpy as np

from lurestab.engine import solve
from lurestab.lmi import LmiKind, build_dual, build_primal
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem

__all__ = [
    "DualityAuditReport",
    "MultiplierAudit",
    "SlopeSample",
    "audit_duality",
    "audit_multiplier_inequality",
    "sample_slope_fn",
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
    kind_p = (
        LmiKind.PRIMAL_DD
        if sys.nl_class == NonlinearityClass.SLOPE_ODD
        else LmiKind.PRIMAL_DHD
    )
    kind_d = (
        LmiKind.DUAL_DD
        if sys.nl_class == NonlinearityClass.SLOPE_ODD
        else LmiKind.DUAL_DHD
    )
    primal = solve(build_primal(sys, kind_p))
    dual = solve(build_dual(sys, kind_d))
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
