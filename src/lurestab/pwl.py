"""Piecewise-linear scalar maps with saturation plateaus.

The destabilizing nonlinearities constructed from dual certificates are
continuous piecewise-linear functions: linear interpolation between
breakpoints, constant beyond the first and last one.  The same type also
serves as a general slope-restriction test subject, so construction is
permissive and verify_slope carries the actual checks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .system import SlopeBand

__all__ = ["PiecewiseLinearMap", "SlopeReport", "eval_pwl", "verify_slope"]

# Absolute slack of the segment slopes on the band [mu, nu].
SLOPE_TOL = 1.0e-9
# Bound on |phi(0)| and, for an odd map, on its antisymmetry defect.
SYM_TOL = 1.0e-12


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Breakpoint table (k, 2) with strictly increasing z, plus an odd flag.

    The odd flag is a claim about the map (checked by verify_slope), not a
    construction-time constraint.
    """

    breakpoints: np.ndarray
    odd: bool = False

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.breakpoints, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise StructuralError("breakpoints must be a (k, 2) table with k >= 1")
        if not np.all(np.isfinite(pts)):
            raise StructuralError("breakpoints must be finite")
        if np.any(np.diff(pts[:, 0]) <= 0):
            raise StructuralError("breakpoint z values must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)

    @property
    def z_nodes(self) -> np.ndarray:
        return self.breakpoints[:, 0]

    @property
    def w_nodes(self) -> np.ndarray:
        return self.breakpoints[:, 1]

    def segment_slopes(self) -> np.ndarray:
        """Slopes of the interior segments; empty for a single breakpoint."""
        dz = np.diff(self.z_nodes)
        dw = np.diff(self.w_nodes)
        return dw / dz if dz.size else np.zeros(0)


def eval_pwl(phi: PiecewiseLinearMap, z):
    """Evaluate the map; plateaus outside the breakpoint hull.

    Accepts scalars or arrays (applied elementwise, the repeated-channel
    convention for diagonal nonlinearities).
    """
    z_arr = np.asarray(z, dtype=float)
    out = np.interp(z_arr, phi.z_nodes, phi.w_nodes)
    if np.isscalar(z) or z_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SlopeReport:
    """Outcome of the slope-restriction audit; ok aggregates all checks."""

    ok: bool
    min_slope: float
    max_slope: float
    origin_defect: float
    odd_defect: float


def verify_slope(phi: PiecewiseLinearMap, band: SlopeBand) -> SlopeReport:
    """Check segment slopes against [mu, nu], the origin, and oddness.

    The plateau tails count as slope-0 segments (the band always contains 0,
    so saturation never violates the restriction by itself).  Odd maps are
    checked for antisymmetry at their breakpoints.  The slopes may leave the
    band by SLOPE_TOL, phi(0) and the odd defect reach SYM_TOL.
    """
    slopes = phi.segment_slopes()
    all_slopes = np.concatenate([slopes, [0.0]])
    min_slope = float(np.min(all_slopes))
    max_slope = float(np.max(all_slopes))
    origin_defect = abs(eval_pwl(phi, 0.0))
    odd_defect = 0.0
    if phi.odd:
        mirrored = np.asarray(eval_pwl(phi, -phi.z_nodes))
        odd_defect = float(np.max(np.abs(mirrored + phi.w_nodes)))
    ok = (
        min_slope >= band.mu - SLOPE_TOL
        and max_slope <= band.nu + SLOPE_TOL
        and origin_defect <= SYM_TOL
        and (not phi.odd or odd_defect <= SYM_TOL)
    )
    return SlopeReport(
        ok=bool(ok),
        min_slope=min_slope,
        max_slope=max_slope,
        origin_defect=float(origin_defect),
        odd_defect=odd_defect,
    )
