"""Closed-loop simulation with a static piecewise-linear nonlinearity.

The loop w = Phi(C x + D w) is implicit whenever D is nonzero; it is solved
by fixed-point iteration, which contracts at rate ||D|| times the largest
absolute slope of the scalar map.  The simulator refuses combinations where
that product reaches 1, since uniqueness of the loop solution is then not
guaranteed by the contraction argument.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError, UnsupportedModeError
from .linalg import spectral_norm
from .pwl import PiecewiseLinearMap, eval_pwl
from .system import StateSpaceSystem

__all__ = ["Trajectory", "simulate", "solve_loop", "vector_field"]

_LOOP_TOL = 1.0e-12
_LOOP_CAP = 10_000


@dataclass(frozen=True)
class Trajectory:
    """States x(0..K) with the loop solution at every visited state.

    states has K+1 rows; outputs, inputs, and loop_residuals align with it
    row by row (the loop is solved at the final state too, so the last row
    is complete even though it feeds no further step).
    """

    states: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    loop_residuals: np.ndarray

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1


def _max_abs_slope(phi: PiecewiseLinearMap) -> float:
    slopes = phi.segment_slopes()
    return float(np.max(np.abs(slopes))) if slopes.size else 0.0


def _check_contraction(sys: StateSpaceSystem, phi: PiecewiseLinearMap) -> None:
    gain = spectral_norm(sys.D) * _max_abs_slope(phi)
    if not gain < 1.0:
        raise UnsupportedModeError(
            f"loop gain ||D||*max|slope| = {gain:.6g} is not < 1; "
            "the fixed-point solver does not apply"
        )


def solve_loop(sys: StateSpaceSystem, phi: PiecewiseLinearMap, x: np.ndarray):
    """Solve w = Phi(C x + D w) for one state; returns (w, residual).

    Fixed-point iteration from w = 0 until the update is below
    1e-12 * (1 + ||w||), cap 10^4 iterations.  Requires the contraction
    condition ||D|| * max|slope| < 1.
    """
    _check_contraction(sys, phi)
    return _iterate_loop(sys, phi, x)


def _iterate_loop(sys: StateSpaceSystem, phi: PiecewiseLinearMap, x: np.ndarray):
    """solve_loop once the contraction condition is known to hold."""
    x = np.asarray(x, dtype=float).reshape(sys.n)
    Cx = sys.C @ x
    w = np.zeros(sys.m)
    for _ in range(_LOOP_CAP):
        w_next = np.asarray(eval_pwl(phi, Cx + sys.D @ w))
        if float(np.linalg.norm(w_next - w)) <= _LOOP_TOL * (
            1.0 + float(np.linalg.norm(w_next))
        ):
            w = w_next
            break
        w = w_next
    else:
        residual = float(
            np.linalg.norm(w - np.asarray(eval_pwl(phi, Cx + sys.D @ w)))
        )
        raise NumericFailureError(
            f"loop iteration did not settle in {_LOOP_CAP} steps; "
            f"residual {residual:.3e}"
        )
    residual = float(np.linalg.norm(w - np.asarray(eval_pwl(phi, Cx + sys.D @ w))))
    return w, residual


def simulate(
    sys: StateSpaceSystem, phi: PiecewiseLinearMap, x0: np.ndarray, steps: int
) -> Trajectory:
    """Run the closed loop for the given number of steps from the finite
    state x0."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x = np.asarray(x0, dtype=float).reshape(sys.n)
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    _check_contraction(sys, phi)
    states = np.zeros((steps + 1, sys.n))
    outputs = np.zeros((steps + 1, sys.m))
    inputs = np.zeros((steps + 1, sys.m))
    residuals = np.zeros(steps + 1)
    states[0] = x
    for k in range(steps + 1):
        w, res = _iterate_loop(sys, phi, states[k])
        inputs[k] = w
        outputs[k] = sys.C @ states[k] + sys.D @ w
        residuals[k] = res
        if k < steps:
            states[k + 1] = sys.A @ states[k] + sys.B @ w
    return Trajectory(
        states=states, outputs=outputs, inputs=inputs, loop_residuals=residuals
    )


def vector_field(
    sys: StateSpaceSystem,
    phi: PiecewiseLinearMap,
    xlim=(-2.0, 2.0),
    ylim=(-2.0, 2.0),
    nx: int = 21,
    ny: int = 21,
):
    """One-step displacement x_next - x on a planar grid.

    Only defined for n = 2, on finite limits and at least one node per
    axis.  Returns a list of (x, dx) pairs in row-major grid order (x1
    outer, x2 inner), 441 nodes on the default 21 x 21 grid.
    """
    if sys.n != 2:
        raise UnsupportedModeError("vector fields are only produced for n = 2")
    if not np.all(np.isfinite(np.array([*xlim, *ylim], dtype=float))):
        raise ValueError("the grid's limits must be finite")
    if int(nx) < 1 or int(ny) < 1:
        raise ValueError("the grid needs nx >= 1 and ny >= 1")
    _check_contraction(sys, phi)
    xs = np.linspace(float(xlim[0]), float(xlim[1]), int(nx))
    ys = np.linspace(float(ylim[0]), float(ylim[1]), int(ny))
    out = []
    for x1 in xs:
        for x2 in ys:
            x = np.array([x1, x2])
            w, _ = _iterate_loop(sys, phi, x)
            dx = sys.A @ x + sys.B @ w - x
            out.append((x, dx))
    return out
