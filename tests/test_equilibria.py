"""The search for a class map that gives the normalized loop a nonzero
equilibrium (equilibria.search), on loops whose answer is known in closed
form, its null vectors, the channel count analyze runs it on, and the
zero-state test it shares with the detector, the report and the checker."""

import importlib.util
import itertools
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab import engine
from lurestab.equilibria import (
    MAX_CHANNELS,
    TOL_EQUILIBRIUM,
    _null_vectors,
    linear_equilibrium,
    search,
    zero_state,
)
from lurestab.report import analyze
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem
from oracles import has_equilibrium_exactly

CHECKER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "checker.py"


def _loop(G, odd=False):
    """The loop x+ = x / 2 + w, z = G w on [0, 1]: its equilibrium gain
    C (I - A)^{-1} B + D is G, and the state 2 w of input w is zero only at
    w = 0."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    m = G.shape[0]
    cls = NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(
        0.5 * np.eye(m), np.eye(m), np.zeros((m, m)), G, SlopeBand(0.0, 1.0), cls
    )


def _is_equilibrium_input(G, w, odd):
    """Whether a class map through the origin and the nodes (G w, w), folded
    onto z >= 0 for the odd class, has every slope in [0, 1], to rounding."""
    z = G @ w
    s = np.where(odd & (z < 0), -1.0, 1.0)
    zs, ws = np.r_[0.0, s * z], np.r_[0.0, s * w]
    order = np.argsort(zs)
    dz, dw = np.diff(zs[order]), np.diff(ws[order])
    return min(dw.min(), (dz - dw).min()) >= -1e-12


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("gain, has_one", [(1.5, True), (1.0, True), (0.75, False), (-2.0, False)])
def test_a_scalar_loop_has_an_equilibrium_exactly_when_its_gain_reaches_one(odd, gain, has_one):
    # psi(z) = z / G is a class map (odd, slope in [0, 1]) exactly when G >= 1
    record, found = search(_loop(gain, odd))
    assert (found is not None) == has_one
    assert has_equilibrium_exactly(_loop(gain, odd)) == has_one
    linear = linear_equilibrium(_loop(gain, odd))
    assert (linear is not None) == has_one
    assert record["rays"] == 1
    assert (record["closest"] <= TOL_EQUILIBRIUM) == has_one
    if has_one:
        # the state of input w is F w = 2 w
        h1, ray = found
        assert abs(ray[0]) == 1.0 and np.array_equal(h1, 2.0 * ray)
        lam, (h1, w) = linear
        assert lam == gain and abs(w[0]) == 1.0 and np.array_equal(h1, 2.0 * w)


@pytest.mark.parametrize("odd", [False, True])
def test_an_equilibrium_that_needs_a_map_which_is_not_odd(odd):
    # z = (-w2, w1 + w2): psi(z) = max(z, 0) has the equilibrium w = (0, 1),
    # z = (-1, 1); an odd map has none
    G = [[0.0, -1.0], [1.0, 1.0]]
    _, found = search(_loop(G, odd))
    assert (found is not None) == (not odd)
    assert has_equilibrium_exactly(_loop(G, odd)) == (not odd)
    # G's eigenvalues (1 +- i sqrt(3)) / 2 are complex: no linear map shows it
    assert linear_equilibrium(_loop(G, odd)) is None
    if found is not None:
        assert np.allclose(np.abs(found[1]), [0.0, 1.0], atol=1e-15)
        assert _is_equilibrium_input(np.array(G), found[1], odd)


def test_the_linear_equilibrium_is_the_largest_real_eigenvalue_past_one():
    lam, (h1, w) = linear_equilibrium(_loop(np.diag([1.5, 3.0, 0.5])))
    assert lam == 3.0 and np.array_equal(np.abs(w), [0.0, 1.0, 0.0])
    assert np.array_equal(h1, 2.0 * w)
    assert linear_equilibrium(_loop(np.diag([0.5, -3.0]))) is None


def test_more_channels_than_the_search_takes_are_not_searched():
    # two copies of the loop above whose equilibrium needs a map that is
    # not odd, and one decoupled channel more: G has no real eigenvalue
    # >= 1.  Closed through x+ = x / 2 + w, z = G x / 2, analyze searches it
    # at m = MAX_CHANNELS and not past it, where the dual pass deflates
    for m in (MAX_CHANNELS, MAX_CHANNELS + 1):
        G = 0.5 * np.eye(m)
        G[:2, :2] = G[2:4, 2:4] = [[0.0, -1.0], [1.0, 1.0]]
        rep = analyze(StateSpaceSystem(0.5 * np.eye(m), np.eye(m), 0.5 * G, np.zeros((m, m))))
        pipe = rep.diagnostics["pipeline"]
        assert rep.verdict == "not_absolutely_stable" and "linear_equilibrium" not in pipe
        assert ("equilibrium_search" in pipe) == (m <= MAX_CHANNELS)
        assert pipe["witness_source"] == ("search" if m <= MAX_CHANNELS else "dual")


def test_inputs_that_drive_no_state_give_no_equilibrium(monkeypatch):
    # x+ = x / 2 with B = 0 leaves the state at zero whatever the input, so
    # although its gain G = D has slope-class equilibrium inputs (two copies
    # of the loop above), the loop has no nonzero equilibrium: every
    # candidate is dropped, and analyze stops after the primal
    G = np.zeros((4, 4))
    G[:2, :2] = G[2:, 2:] = [[0.0, -1.0], [1.0, 1.0]]
    sysm = StateSpaceSystem([[0.5]], np.zeros((1, 4)), np.zeros((4, 1)), G)
    record, found = search(sysm)
    assert found is None and record["rays"] == 0 and record["closest"] == 1.0
    solves = []
    real = engine.solve_conic
    monkeypatch.setattr(engine, "solve_conic", lambda *a, **k: solves.append(1) or real(*a, **k))
    rep = analyze(sysm)
    pipe = rep.diagnostics["pipeline"]
    assert rep.verdict == "inconclusive" and pipe["inconclusive_reason"] == "no_equilibrium"
    assert len(solves) == 1 and rep.dual is None and "dual_status" not in pipe
    assert pipe["equilibrium_search"] == record
    rep.to_json()  # canonical JSON takes finite numbers only


def test_past_the_search_a_factor_that_drives_no_state_is_degenerate():
    # the loop above with one decoupled channel more (G gains a 0.5 entry)
    # is past the search's reach and has no linear equilibrium, so the dual
    # pass deflates; its rank-one point's state part vanishes, and as
    # ||D|| > 1 no nonvanishing argument applies
    G = np.zeros((5, 5))
    G[:2, :2] = G[2:4, 2:4] = [[0.0, -1.0], [1.0, 1.0]]
    G[4, 4] = 0.5
    rep = analyze(StateSpaceSystem([[0.5]], np.zeros((1, 5)), np.zeros((5, 1)), G))
    pipe = rep.diagnostics["pipeline"]
    assert rep.verdict == "inconclusive" and pipe["inconclusive_reason"] == "degenerate"
    assert pipe["rank_rounds"] == 1 and pipe["rank_stop"] == "rank_one"
    assert "equilibrium_search" not in pipe and "linear_equilibrium" not in pipe
    assert "witness_source" not in pipe and rep.phi is None


def test_the_linear_equilibrium_skips_an_eigenvector_that_drives_no_state():
    # G = diag(1.5, 3): lambda = 3's eigenvector e2 has B e2 = 0, so only
    # lambda = 1.5 shows a nonzero equilibrium
    sysm = StateSpaceSystem(0.5 * np.eye(2), np.diag([1.0, 0.0]), np.zeros((2, 2)),
                            np.diag([1.5, 3.0]))
    lam, (h1, w) = linear_equilibrium(sysm)
    assert lam == 1.5 and np.array_equal(np.abs(w), [1.0, 0.0])
    assert np.array_equal(h1, [2.0 * w[0], 0.0])
    sysm = StateSpaceSystem(0.5 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                            np.diag([1.5, 3.0]))
    assert linear_equilibrium(sysm) is None


def _checker():
    """bench/checker.py, the benchmark's independent verdict checker."""
    spec = importlib.util.spec_from_file_location("bench_checker", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CHECKER = _checker()
_entries = st.floats(-1.0e6, 1.0e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    h1=st.lists(_entries, min_size=1, max_size=4),
    w=st.lists(_entries, min_size=1, max_size=4),
    shrink=st.floats(0.0, 20.0) | st.floats(0.0, 330.0),
)
def test_a_state_the_package_calls_nonzero_the_checker_does_too(h1, w, shrink):
    # the checker judges "h1 is zero" on its own; wherever zero_state says
    # the state is not zero, the checker's rule must pass as well
    h1 = np.asarray(h1) * 10.0 ** -shrink
    w = np.asarray(w)
    n, m = h1.size, w.size
    case = SimpleNamespace(A=np.zeros((n, n)), B=np.zeros((n, m)), C=np.zeros((m, n)),
                           D=np.zeros((m, m)), mu=0.0, nu=1.0, odd=False)
    report = {"dual": {"h1": h1.tolist(), "w_star": w.tolist()},
              "phi": {"breakpoints": [[0.0, 0.0], [1.0, 0.0]]}}
    problems = _CHECKER.check_unstable(case, report)
    if not zero_state(h1, w):
        assert "h1 is zero" not in problems


@pytest.mark.parametrize("m", [2, 3, 4])
def test_null_vectors_annihilate_their_rows(m):
    rng = np.random.default_rng(m)
    X = rng.normal(size=(50, m - 1, m))
    v = _null_vectors(X)
    assert np.all(np.linalg.norm(v, axis=1) > 0.01)
    assert np.max(np.abs(np.einsum("krj,kj->kr", X, v))) <= 1e-14 * np.max(np.abs(v))
    if m > 2:
        # two equal rows leave a null space of dimension two: no ray, up to rounding
        X[:, 1] = X[:, 0]
        assert np.max(np.abs(_null_vectors(X))) <= 1e-14


def test_the_search_and_the_exact_oracle_agree_on_random_loops():
    # an odd map is a slope map, so an odd equilibrium is a slope one too;
    # every ray the search returns is an equilibrium input
    rng = np.random.default_rng(5)
    seen, seen_linear = set(), 0
    for m, _ in itertools.product((2, 3), range(12)):
        G = rng.normal(size=(m, m)) * 1.5
        pairs = [search(_loop(G, odd))[1] for odd in (False, True)]
        found = [pair is not None for pair in pairs]
        assert found == [has_equilibrium_exactly(_loop(G, odd)) for odd in (False, True)], G
        assert found[0] or not found[1], G
        # a linear map is odd, so an equilibrium it shows is one of both
        # classes: z / lambda closes the loop at lambda's eigenvector
        linear = linear_equilibrium(_loop(G))
        if linear is not None:
            assert found[1], G
            lam, (h1, w) = linear
            assert np.array_equal(h1, 2.0 * w), G
            assert lam >= 1.0 and abs(np.linalg.norm(w) - 1.0) <= 1e-15, G
            assert np.allclose(G @ w, lam * w, atol=1e-14), G
            assert _is_equilibrium_input(G, w, True), G
            seen_linear += 1
        for odd, pair in zip((False, True), pairs):
            assert pair is None or _is_equilibrium_input(G, pair[1], odd), G
            assert pair is None or np.array_equal(pair[0], 2.0 * pair[1]), G
        seen.add(tuple(found))
    assert seen == {(False, False), (True, False), (True, True)}
    assert seen_linear > 0
