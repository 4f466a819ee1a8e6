"""The LMI block's rows taken through the LMI's congruence structure
(engine._LmiGram) against the dense rows the oracle forms (-F^T): the
Schur term against B_p B_p^T; B u, B^T y, A x and A^T y against the
products with the dense A; and the row scaling d and verify against the
same rows.  Also the one place the path is
chosen, that the structured path never forms F's LMI rows, and the dual
path above the crossover end to end, with one form and one structured
term per analysis."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from lurestab import (
    NonlinearityClass, SlopeBand, StateSpaceSystem, analyze, conic, engine, report,
)
from lurestab.conic import _orthant_rows, _Scaling, _UnformedB
from lurestab.engine import build_dual
from lurestab.lmi import build_primal
from lurestab.system import normalize_band
from helpers import formed_rows, interior_point
from oracles import dense_dual_rows

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _system(case):
    cls = NonlinearityClass.SLOPE_ODD if case.odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(case.A, case.B, case.C, case.D, SlopeBand(case.mu, case.nu), cls)


def _random_system(seed, n, m, odd, band=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(abs(np.linalg.eigvals(A)))
    cls = NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(
        A, 0.3 * rng.normal(size=(n, m)), 0.3 * rng.normal(size=(m, n)),
        0.1 * rng.normal(size=(m, m)), SlopeBand(*band), cls,
    )


@pytest.mark.parametrize(
    "n, m, odd, band",
    [
        (3, 2, False, (0.0, 1.0)),
        (2, 3, True, (0.0, 1.0)),
        (3, 1, False, (0.0, 1.0)),  # m = 1: no off-diagonal coordinates
        (2, 1, True, (0.0, 1.0)),
        (1, 3, False, (0.0, 1.0)),  # n = 1
        (1, 2, True, (0.0, 1.0)),
        (2, 2, False, (-0.4, 1.7)),  # normalized to [0, 1] first
        (2, 3, True, (-0.4, 1.7)),
        (10, 10, False, (0.0, 1.0)),  # above the crossover, as analyze takes it
        (10, 10, True, (0.0, 1.0)),
    ],
)
def test_structured_gram_matches_the_dense_product(monkeypatch, n, m, odd, band):
    monkeypatch.setattr(engine, "_STRUCTURED_MIN_DIM", 0)
    sysm = normalize_band(_random_system(10 * n + m, n, m, odd, band))
    problem = build_primal(sysm)
    form = build_dual(problem)
    rng = np.random.default_rng(n + 7 * m)
    assert form.psd_rows is not None
    # the dense A at the form's own row scaling
    A = dense_dual_rows(problem) / form.d[:, None]
    for _ in range(3):
        # a random NT scaling of the form's cone
        cone = form.cone
        sc = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        assert cone.d == n + m
        Bp = sc.schur(A, *formed_rows(A, cone), np.empty((len(A), len(A)))).B[:, cone.psd]
        ref = Bp @ Bp.T
        # the term is its lower triangle (_NormalFactor reads no other)
        got = np.full_like(ref, np.nan)
        form.psd_rows.term(sc.R, got)
        assert np.max(np.abs(np.tril(got) - np.tril(ref))) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, m", [(10, 10), (12, 12)])
@pytest.mark.parametrize("odd", [False, True], ids=["slope", "odd"])
def test_structured_products_equal_the_dense_ones(n, m, odd):
    sysm = normalize_band(_random_system(n + 3 * m, n, m, odd))
    problem = build_primal(sysm)
    form = build_dual(problem)
    assert n + m >= engine._STRUCTURED_MIN_DIM
    rng = np.random.default_rng(n)
    cone = form.cone
    # the form holds the orthant's columns only; the dense reference forms
    # -F^T and scales it by d, which is itself checked against its rows
    A_raw = dense_dual_rows(problem)
    assert form.A.shape == (A_raw.shape[0], cone.p)
    assert np.array_equal(form.A_raw, A_raw[:, cone.orthant])
    d = np.maximum(np.maximum(np.linalg.norm(A_raw, axis=1), np.abs(form.b_raw)), 1e-12)
    assert np.max(np.abs(form.d - d) / d) <= 1e-13
    A = A_raw / form.d[:, None]
    orthant = _orthant_rows(form.A)
    a_op = _UnformedB(cone, form.psd_rows, orthant)
    sc = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
    S = np.empty((A.shape[0],) * 2)
    b_op = sc.schur(form.A, form.psd_rows, orthant, S)
    B = sc.schur(A, *formed_rows(A, cone), S)
    X = rng.normal(size=(2, A.shape[1]))
    Y = rng.normal(size=(2, A.shape[0]))
    for got, ref in [
        (a_op.apply(X[0]), A @ X[0]),
        (a_op.apply(X), X @ A.T),
        (a_op.adjoint(Y[0]), A.T @ Y[0]),
        (a_op.adjoint(Y), Y @ A),
        (b_op.apply(X[0]), B.apply(X[0])),
        (b_op.apply(X), B.apply(X)),
        (b_op.adjoint(Y[0]), B.adjoint(Y[0])),
        (b_op.adjoint(Y), B.adjoint(Y)),
    ]:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # verify's raw residual, through the structured rows, against the same
    # measure on the dense -F^T
    for _ in range(3):
        x = interior_point(cone, rng) * rng.uniform(0.5, 2.0, size=cone.total_len)
        _, max_eq, _ = form.verify(x)
        ref_eq = np.max(np.abs(A_raw @ x - form.b_raw))
        assert abs(max_eq - ref_eq) <= 1e-13 * ref_eq


@pytest.mark.parametrize("structured", [True, False], ids=["structured", "formed"])
def test_a_reused_schur_buffer_holds_what_a_fresh_one_does(monkeypatch, structured):
    # the odd class's M_abs coordinates have orthant entries but no LMI
    # terms: a term that left their rows as the last step did, or an
    # orthant added onto the last step's S, would show
    monkeypatch.setattr(engine, "_STRUCTURED_MIN_DIM", 0 if structured else 10**9)
    form = build_dual(build_primal(normalize_band(_random_system(5, 3, 3, True))))
    assert (form.psd_rows is not None) == structured
    abs_rows = next(sl for v, sl in form.var_slices if v.name == "M_abs")
    assert form.gram.zero_rows == [abs_rows] and form.A_raw[abs_rows].any()
    cone, n = form.cone, form.d.size
    # the rows as solve_conic holds them on the form's path
    rows = (form.psd_rows, _orthant_rows(form.A)) if structured else formed_rows(form.A, cone)
    rng = np.random.default_rng(3)
    scalings = [_Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
                for _ in range(2)]
    S = np.empty((n, n))
    for sc in scalings:
        sc.schur(form.A, *rows, S)
    # every entry of a fresh buffer's lower triangle is written
    fresh = np.full((n, n), np.nan)
    scalings[-1].schur(form.A, *rows, fresh)
    assert np.array_equal(np.tril(S), np.tril(fresh))


@pytest.mark.parametrize("structured", [True, False], ids=["structured", "formed"])
def test_one_run_factors_every_step_from_one_buffer(monkeypatch, structured):
    monkeypatch.setattr(engine, "_STRUCTURED_MIN_DIM", 0 if structured else 10**9)
    seen = []

    class Spying(conic._NormalFactor):
        def __init__(self, M):
            seen.append(M)
            super().__init__(M)

    monkeypatch.setattr(conic, "_NormalFactor", Spying)
    form = build_dual(build_primal(normalize_band(_random_system(5, 3, 3, True))))
    assert (form.psd_rows is not None) == structured
    res = engine.solve(form)
    assert len(seen) == res.diagnostics["ipm_iterations"] - 1 > 2
    assert all(M is seen[0] for M in seen)
    # the next run has its own
    engine.solve(form)
    assert seen[-1] is not seen[0]


def test_the_lmi_gram_holds_no_array_of_the_schur_complements_size():
    # the term is written straight into S: the gram keeps no buffer, index
    # map or scale of nrows^2 entries between steps
    ladder = {case.name: case for case in _workloads().ladder()}
    form = build_dual(build_primal(normalize_band(_system(ladder["ladder-20"]))))
    nrows = form.d.size
    assert nrows == 611 and form.psd_rows is not None

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)

    sizes = [a.size for value in vars(form.psd_rows).values() for a in arrays(value)]
    assert sizes and max(sizes) < nrows * nrows


def test_the_structured_path_never_forms_the_lmi_rows(monkeypatch):
    # an analysis above the crossover reads F's LMI rows through the
    # congruence only: _LmiGram.formed, the one place they are formed, is
    # never called
    calls = []
    real = engine._LmiGram.formed
    monkeypatch.setattr(engine._LmiGram, "formed", lambda self: calls.append(self) or real(self))
    ladder = {case.name: case for case in _workloads().ladder()}
    sysm = _system(ladder["ladder-12"])
    assert sysm.n + sysm.m >= engine._STRUCTURED_MIN_DIM
    assert analyze(sysm).verdict == "absolutely_stable"
    assert calls == []
    # below it the formed path writes them
    analyze(_random_system(1, 3, 2, False))
    assert calls


def _takes_structured_path(case) -> bool:
    return build_dual(build_primal(normalize_band(_system(case)))).psd_rows is not None


def test_the_path_is_chosen_by_the_lmi_dimension():
    bench = _workloads()
    for case in bench.paper() + bench.corpus():
        assert not _takes_structured_path(case), case.name
    ladder = {case.name: case for case in bench.ladder()}
    for name in ("ladder-2", "ladder-4", "ladder-8"):
        assert not _takes_structured_path(ladder[name])
    for name in ("ladder-12", "ladder-16", "ladder-20"):
        assert _takes_structured_path(ladder[name])


def test_the_lmi_gram_is_built_once_per_problem(monkeypatch):
    # the primal solve and the dual pass of one analysis share one form and
    # so one structured term, and nothing is cached on the problem
    monkeypatch.setattr(engine, "_STRUCTURED_MIN_DIM", 0)
    calls, built, problems = [], [], []
    real = conic.solve_conic

    def spy(*args, **kwargs):
        calls.append(kwargs.get("psd_rows"))
        return real(*args, **kwargs)

    class Counting(engine._LmiGram):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    def building(unit):
        problems.append(build_primal(unit))
        return problems[-1]

    monkeypatch.setattr(engine, "solve_conic", spy)
    monkeypatch.setattr(engine, "_LmiGram", Counting)
    monkeypatch.setattr(report, "build_primal", building)
    case = next(c for c in _workloads().corpus() if c.name == "corpus-43")
    rep = analyze(_system(case))
    # the primal was solved and failed, and the dual pass ran
    assert rep.primal is not None and rep.verdict == "not_absolutely_stable"
    assert len(calls) == 2
    assert len(problems) == len(built) == 1
    assert all(rows is built[0] for rows in calls)
    assert "lmi_gram" not in problems[0].meta


def _destabilized_loop(n, seed):
    """n = m loop drawn like the benchmark's ladder, with B and D scaled by
    1.5 k*, k* the least linear gain at which A + k B (I - k D)^{-1} C
    stops being Schur: the linear gain k* / 1.5 of the band makes it
    unstable."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(abs(np.linalg.eigvals(A)))
    B, C, D = 0.1 * rng.normal(size=(n, n)), 0.1 * rng.normal(size=(n, n)), 0.02 * rng.normal(size=(n, n))

    def rho(k):
        return max(abs(np.linalg.eigvals(A + k * B @ np.linalg.solve(np.eye(n) - k * D, C))))

    grid = np.geomspace(1e-3, 1e3, 600)
    hi = next(k for k in grid if rho(k) >= 1.0)
    lo = grid[np.searchsorted(grid, hi) - 1]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rho(mid) < 1.0 else (lo, mid)
    c = 1.5 * hi
    return StateSpaceSystem(A, c * B, C, c * D, SlopeBand(0.0, 1.0), NonlinearityClass.SLOPE)


def test_the_dual_path_above_the_crossover_finds_a_checked_equilibrium(monkeypatch):
    sysm = _destabilized_loop(10, 13)
    assert sysm.n + sysm.m >= engine._STRUCTURED_MIN_DIM
    calls = []
    real = conic.solve_conic

    def spy(*args, **kwargs):
        calls.append(kwargs.get("psd_rows") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_conic", spy)
    built, problems = [], []

    class Counting(engine._LmiGram):
        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    def building(unit):
        problems.append(build_primal(unit))
        return problems[-1]

    monkeypatch.setattr(engine, "_LmiGram", Counting)
    monkeypatch.setattr(report, "build_primal", building)
    unit = normalize_band(sysm)
    reports = [analyze(sysm)]
    # one form and one structured term per analysis, and nothing cached on
    # the problem
    assert len(problems) == len(built) == 1
    assert set(problems[0].meta) == {"system", "congruence"}
    # analyze skips this loop's primal, which a linear equilibrium rules
    # out; solved directly, it fails, and it and every dual solve took the
    # structured path
    assert reports[0].primal is None
    assert engine.solve(build_dual(build_primal(unit))).status == "infeasible"
    assert len(calls) >= 2 and all(calls)
    monkeypatch.setattr(engine, "_STRUCTURED_MIN_DIM", 10**9)
    structured = len(calls)
    reports.append(analyze(sysm))
    assert engine.solve(build_dual(build_primal(unit))).status == "infeasible"
    assert len(calls) > structured and not any(calls[structured:])
    for rep in reports:
        body = json.loads(rep.to_json())
        assert body["verdict"] == "not_absolutely_stable"
        assert body["diagnostics"]["pipeline"]["equilibrium_check"]["ok"] is True
