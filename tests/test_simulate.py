"""Closed-loop simulation, implicit loop solving, and vector fields."""

import importlib

import numpy as np
import pytest

from lurestab.errors import UnsupportedModeError
from lurestab.pwl import PiecewiseLinearMap
from lurestab.simulate import simulate, solve_loop, vector_field
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem

# the package exports the function simulate under the module's name
simulate_module = importlib.import_module("lurestab.simulate")


def _plant(D):
    D = np.atleast_2d(np.asarray(D, dtype=float))
    m = D.shape[0]
    A = np.array([[0.5, 0.1], [0.0, 0.3]])
    B = np.ones((2, m)) * 0.2
    C = np.ones((m, 2)) * 0.4
    return StateSpaceSystem(
        A, B, C, D, SlopeBand(0.0, 1.0), NonlinearityClass.SLOPE
    )


def _sat():
    return PiecewiseLinearMap(
        np.array([[-1.0, -1.0], [1.0, 1.0]])
    )


def test_solve_loop_explicit_when_d_zero():
    sysm = _plant(np.zeros((1, 1)))
    x = np.array([1.0, -0.5])
    w, res = solve_loop(sysm, _sat(), x)
    z = sysm.C @ x
    assert w == pytest.approx(np.clip(z, -1.0, 1.0))
    assert res <= 1.0e-12


def test_solve_loop_fixed_point_with_feedthrough():
    sysm = _plant([[0.5]])
    x = np.array([0.3, 0.3])
    w, res = solve_loop(sysm, _sat(), x)
    z = sysm.C @ x + sysm.D @ w
    # the returned w actually solves the implicit equation
    assert abs(w - np.clip(z, -1, 1)) <= 1.0e-10
    assert res <= 1.0e-10


def test_solve_loop_rejects_non_contractive_gain():
    sysm = _plant([[1.0]])  # ||D|| * max slope = 1 exactly
    with pytest.raises(UnsupportedModeError):
        solve_loop(sysm, _sat(), np.zeros(2))


def test_simulate_shapes_and_alignment():
    sysm = _plant([[0.2]])
    traj = simulate(sysm, _sat(), np.array([1.0, 1.0]), 10)
    assert traj.steps == 10
    assert traj.states.shape == (11, 2)
    assert traj.outputs.shape == (11, 1)
    assert traj.inputs.shape == (11, 1)
    assert traj.loop_residuals.shape == (11,)
    # every row satisfies the loop and the recursion links the rows
    for k in range(11):
        z = sysm.C @ traj.states[k] + sysm.D @ traj.inputs[k]
        assert np.allclose(traj.outputs[k], z)
        if k < 10:
            step = sysm.A @ traj.states[k] + sysm.B @ traj.inputs[k]
            assert np.allclose(traj.states[k + 1], step)
    assert np.max(traj.loop_residuals) <= 1.0e-10


def test_simulate_and_field_check_the_contraction_once(monkeypatch):
    sysm = _plant([[0.2]])
    x0 = np.array([1.0, -0.5])
    per_state = [solve_loop(sysm, _sat(), x0)]
    calls = []
    real = simulate_module.spectral_norm

    def counting(M):
        calls.append(1)
        return real(M)

    monkeypatch.setattr(simulate_module, "spectral_norm", counting)
    traj = simulate(sysm, _sat(), x0, 10)
    assert len(calls) == 1
    vector_field(sysm, _sat(), nx=3, ny=3)
    assert len(calls) == 2
    # the loop solution is the one solve_loop gives on its own, bit for bit
    assert np.array_equal(traj.inputs[0], per_state[0][0])
    assert traj.loop_residuals[0] == per_state[0][1]
    with pytest.raises(UnsupportedModeError):
        simulate(_plant([[1.0]]), _sat(), x0, 3)


def test_simulate_zero_state_stays_zero():
    sysm = _plant([[0.2]])
    traj = simulate(sysm, _sat(), np.zeros(2), 5)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs == 0.0)
    assert np.all(traj.outputs == 0.0)


def test_simulate_zero_steps():
    sysm = _plant([[0.0]])
    traj = simulate(sysm, _sat(), np.array([2.0, -1.0]), 0)
    assert traj.steps == 0
    assert traj.states.shape == (1, 2)


def test_simulate_rejects_negative_steps():
    with pytest.raises(ValueError):
        simulate(_plant([[0.0]]), _sat(), np.zeros(2), -1)


def test_vector_field_grid_order():
    sysm = _plant([[0.0]])
    field = vector_field(sysm, _sat(), xlim=(-1, 1), ylim=(-1, 1), nx=3, ny=3)
    assert len(field) == 9
    xs = np.array([x for x, _ in field])
    # row-major: x1 outer loop, x2 inner loop
    assert np.array_equal(xs[:3, 0], [-1.0, -1.0, -1.0])
    assert np.array_equal(xs[:3, 1], [-1.0, 0.0, 1.0])
    for x, dx in field:
        w, _ = solve_loop(sysm, _sat(), x)
        assert np.allclose(dx, sysm.A @ x + sysm.B @ w - x)


def test_vector_field_default_grid_size():
    field = vector_field(_plant([[0.0]]), _sat())
    assert len(field) == 441


def test_vector_field_requires_planar_state():
    A = np.eye(3) * 0.5
    B = np.ones((3, 1)) * 0.1
    C = np.ones((1, 3)) * 0.1
    D = np.zeros((1, 1))
    sysm = StateSpaceSystem(
        A, B, C, D, SlopeBand(0.0, 1.0), NonlinearityClass.SLOPE
    )
    with pytest.raises(UnsupportedModeError):
        vector_field(sysm, _sat())


def test_equilibrium_is_fixed(slope_example, slope_report):
    phi = slope_report.phi
    h1 = np.asarray(slope_report.dual["h1"], dtype=float)
    traj = simulate(slope_example, phi, h1, 50)
    dev = np.max(np.linalg.norm(traj.states - h1[None, :], axis=1))
    assert dev <= 1.0e-8 * np.linalg.norm(h1)
