"""The primal's dense form F0 + F z, written by build_primal from the
structure, against every constraint written from the paper's definitions."""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab import engine
from lurestab.conic import svec
from lurestab.lmi import BOX_BOUND, build_primal
from lurestab.multipliers import build_multiplier
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem, normalize_band
from oracles import primal_constraints

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _ladder():
    """The benchmark's n = m ladder systems, by size."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        case.A.shape[0]: StateSpaceSystem(case.A, case.B, case.C, case.D)
        for case in module.ladder()
    }


def _random_system(seed, n, m, odd, band=SlopeBand(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
    return StateSpaceSystem(
        A,
        rng.normal(size=(n, m)),
        rng.normal(size=(m, n)),
        0.3 * rng.normal(size=(m, m)),
        band,
        NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE,
    )


def _assert_rows_from_definitions(sysm, seed=0):
    """F0 + F z at random z equals each constraint at the assignment the
    engine reads off z."""
    problem = build_primal(sysm)
    form = engine._Inequality(problem)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        z = rng.normal(size=problem.objective.size)
        rows = problem.F0 + problem.F @ z
        expect = primal_constraints(sysm, form.reconstruct(z))
        assert [con.name for con, _ in problem.constraints] == list(expect)
        for con, sl in problem.constraints:
            got, want = engine._from_coords(con.kind, rows[sl], con.dim), expect[con.name]
            if con.cone == "hollow_nonneg":
                want = want.copy()
                np.fill_diagonal(want, 0.0)
            scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
            assert np.max(np.abs(got - want), initial=0.0) <= 1.0e-13 * scale, con.name


def test_rows_follow_the_definitions_on_the_paper_examples(slope_example, odd_example):
    _assert_rows_from_definitions(slope_example)
    _assert_rows_from_definitions(odd_example)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_rows_follow_the_definitions_on_the_ladder(size):
    _assert_rows_from_definitions(_ladder()[size])


def test_rows_follow_the_definitions_with_variables_without_coordinates():
    # odd class, m = 1: M_offdiag and M_abs are hollow 1 x 1, no coordinates
    sysm = _random_system(3, n=2, m=1, odd=True)
    problem = build_primal(sysm)
    empty = [v.name for v, sl in problem.variables if sl.stop == sl.start]
    assert empty == ["M_offdiag", "M_abs"]
    _assert_rows_from_definitions(sysm)


def test_rows_follow_the_definitions_on_a_normalized_general_band():
    sysm = _random_system(11, n=3, m=2, odd=False, band=SlopeBand(-0.4, 1.6))
    small = dataclasses.replace(sysm, B=0.3 * sysm.B, C=0.3 * sysm.C, D=0.1 * sysm.D)
    unit = normalize_band(small)
    assert unit.band.is_reduced and not np.array_equal(unit.A, small.A)
    _assert_rows_from_definitions(unit)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
def test_rows_follow_the_definitions_property(seed, n, m, odd):
    _assert_rows_from_definitions(_random_system(seed, n, m, odd), seed)


@pytest.mark.parametrize("size", [2, 4, 8, 20])
def test_p_box_columns_are_exact(size):
    # -1 / (w BOX_BOUND) bit for bit, not a difference of two evaluations
    problem = build_primal(_ladder()[size])
    at = {v.name: sl for v, sl in problem.variables}
    rows = {con.name: sl for con, sl in problem.constraints}
    # svec's weights: 1 on the diagonal, sqrt 2 off it
    column = np.diag(-1.0 / (svec(np.ones((size, size))) * BOX_BOUND))
    assert np.array_equal(problem.F[rows["p_box_hi"], at["P"]], column)
    assert np.array_equal(problem.F[rows["p_box_lo"], at["P"]], -column)


def test_build_multiplier_rejects_a_nonsquare_stack():
    # build_multiplier takes one square M; build_primal reads L(P, M) off
    # lmi_congruence, so a stack of M is rejected, square or not
    with pytest.raises(ValueError):
        build_multiplier(np.ones((2, 2, 3)), SlopeBand(0.0, 1.0))
    with pytest.raises(ValueError):
        build_multiplier(np.ones((2, 2, 2)), SlopeBand(0.0, 1.0))
    with pytest.raises(ValueError):
        build_multiplier(np.ones(3), SlopeBand(0.0, 1.0))
