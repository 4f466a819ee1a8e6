"""The primal's dense form F0 + F z, read with one batched evaluation of each
constraint per variable, against the per-coordinate reference probe."""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab import engine
from lurestab.lmi import SdpFeasibilityProblem, build_primal
from lurestab.multipliers import build_multiplier
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem, normalize_band
from oracles import probe_per_coordinate

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


def _assert_exact(sysm):
    form = engine._Inequality(build_primal(sysm))
    assert np.array_equal(form.F, probe_per_coordinate(form))


def test_batched_probe_is_exact_on_the_paper_examples(slope_example, odd_example):
    _assert_exact(slope_example)
    _assert_exact(odd_example)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_batched_probe_is_exact_on_the_ladder(size):
    _assert_exact(_ladder()[size])


def test_batched_probe_is_exact_with_variables_without_coordinates():
    # odd class, m = 1: M_offdiag and M_abs are hollow 1 x 1, no coordinates
    sysm = _random_system(3, n=2, m=1, odd=True)
    form = engine._Inequality(build_primal(sysm))
    empty = [v.name for v, sl in form.var_slices if sl.stop == sl.start]
    assert empty == ["M_offdiag", "M_abs"]
    assert np.array_equal(form.F, probe_per_coordinate(form))


def test_batched_probe_is_exact_on_a_normalized_general_band():
    sysm = _random_system(11, n=3, m=2, odd=False, band=SlopeBand(-0.4, 1.6))
    small = dataclasses.replace(sysm, B=0.3 * sysm.B, C=0.3 * sysm.C, D=0.1 * sysm.D)
    unit = normalize_band(small)
    assert unit.band.is_reduced and not np.array_equal(unit.A, small.A)
    _assert_exact(unit)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
def test_batched_probe_is_exact_property(seed, n, m, odd):
    _assert_exact(_random_system(seed, n, m, odd))


def test_build_multiplier_rejects_a_nonsquare_stack():
    # build_multiplier takes one square M; the probe reads L(P, M) off
    # lmi_congruence, so a stack of M is rejected, square or not
    with pytest.raises(ValueError):
        build_multiplier(np.ones((2, 2, 3)), SlopeBand(0.0, 1.0))
    with pytest.raises(ValueError):
        build_multiplier(np.ones((2, 2, 2)), SlopeBand(0.0, 1.0))
    with pytest.raises(ValueError):
        build_multiplier(np.ones(3), SlopeBand(0.0, 1.0))


def _random_assignment(problem, rng):
    out = {}
    for v in problem.variables:
        value = rng.normal(size=v.shape)
        if v.kind == "sym":
            value = value + value.T
        elif v.kind == "hollow":
            np.fill_diagonal(value, 0.0)
        out[v.name] = value
    return out


@pytest.mark.parametrize("odd", [False, True])
def test_constraints_on_a_stacked_assignment_equal_the_stack_of_items(odd):
    problem = build_primal(_random_system(5, n=3, m=3, odd=odd))
    rng = np.random.default_rng(9)
    items = [_random_assignment(problem, rng) for _ in range(4)]
    stacked = {name: np.stack([a[name] for a in items]) for name in items[0]}
    fns = [con.fn for con in problem.constraints] + [problem.meta["strict_lmi"]]
    for fn in fns:
        assert np.array_equal(fn(stacked), np.stack([fn(a) for a in items]))


def test_canonicalizing_the_largest_ladder_calls_each_constraint_once_per_variable():
    # The per-coordinate probe called each fn once per decision coordinate
    # plus once for F0: 611 + 1 = 612 times at n = m = 20.
    problem = build_primal(_ladder()[20])
    calls = {}

    def counting(con):
        def fn(v):
            calls[con.name] = calls.get(con.name, 0) + 1
            return con.fn(v)

        return dataclasses.replace(con, fn=fn)

    counted = SdpFeasibilityProblem(
        variables=problem.variables,
        constraints=tuple(counting(con) for con in problem.constraints),
        objective=problem.objective,
        meta=problem.meta,
    )
    form = engine._Inequality(counted)
    assert form.F.shape[1] == 611
    assert set(calls) == {con.name for con in problem.constraints}
    assert max(calls.values()) <= len(problem.variables) + 1
