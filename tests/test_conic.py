import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab import conic
from lurestab.conic import (
    _TRSV_BLOCK,
    ConeSpec,
    IpmSettings,
    _cho_solve,
    _NormalFactor,
    _row_mats,
    _Scaling,
    smat,
    solve_conic,
    svec,
    svec_dim,
)


def test_svec_roundtrip_and_isometry():
    rng = np.random.default_rng(0)
    S = rng.normal(size=(4, 4))
    S = 0.5 * (S + S.T)
    v = svec(S)
    assert v.shape == (svec_dim(4),)
    assert np.allclose(smat(v, 4), S, atol=1e-14)
    T = rng.normal(size=(4, 4))
    T = 0.5 * (T + T.T)
    # the embedding preserves both the inner product and the norm
    assert np.trace(S @ T) == pytest.approx(float(svec(S) @ svec(T)), rel=1e-12)
    assert np.linalg.norm(S, "fro") == pytest.approx(np.linalg.norm(v), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=9999))
def test_svec_smat_inverse_property(d, seed):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(d, d))
    S = 0.5 * (S + S.T)
    assert np.allclose(smat(svec(S), d), S, atol=1e-13)


def test_cone_spec_slices():
    cone = ConeSpec(blocks=(("s", 3), ("l", 2), ("s", 1)))
    slices = list(cone.slices())
    assert slices[0] == ("s", 3, slice(0, 6))
    assert slices[1] == ("l", 2, slice(6, 8))
    assert slices[2] == ("s", 1, slice(8, 9))
    assert cone.total_len == 9


def _lp_toy():
    # min x0 subject to x0 + x1 = 1, x >= 0
    return np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 0.0]), ConeSpec((("l", 2),))


def _sdp_toy():
    # min <C, X> s.t. tr X = 1, X >= 0: the smallest eigenvalue of C
    rng = np.random.default_rng(1)
    Cm = rng.normal(size=(3, 3))
    Cm = 0.5 * (Cm + Cm.T)
    return svec(np.eye(3))[None, :], np.array([1.0]), svec(Cm), ConeSpec((("s", 3),))


def _mixed_toy():
    A = np.zeros((2, 4))
    A[0, :3] = svec(np.eye(2))
    A[0, 3] = 1.0
    A[1, 3] = 1.0
    c = np.zeros(4)
    c[:3] = svec(np.diag([1.0, 2.0]))
    return A, np.array([2.0, 0.5]), c, ConeSpec((("s", 2), ("l", 1)))


def _infeasible_toy():
    # tr X = 1 and X_01 = 1 have no PSD solution
    A = np.vstack([svec(np.eye(2)), svec(np.array([[0.0, 0.5], [0.5, 0.0]]))])
    return A, np.array([1.0, 1.0]), np.zeros(3), ConeSpec((("s", 2),))


def test_lp_solve():
    # x = (0, 1)
    res = solve_conic(*_lp_toy(), IpmSettings())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.0, abs=1e-8)
    assert res.x[1] == pytest.approx(1.0, abs=1e-8)


def test_sdp_min_eigenvalue():
    A, b, c, cone = _sdp_toy()
    res = solve_conic(A, b, c, cone, IpmSettings())
    assert res.status == "optimal"
    lam_min = np.linalg.eigvalsh(smat(c, 3))[0]
    assert res.obj == pytest.approx(lam_min, abs=1e-7)
    X = smat(res.x, 3)
    assert np.linalg.eigvalsh(X)[0] >= -1e-9


def test_mixed_cone_problem():
    # one PSD block and one orthant block tied by a shared budget
    res = solve_conic(*_mixed_toy(), IpmSettings())
    assert res.status == "optimal"
    X = smat(res.x[:3], 2)
    # weight concentrates on the cheap eigendirection
    assert np.trace(X) == pytest.approx(1.5, abs=1e-7)
    assert X[0, 0] == pytest.approx(1.5, abs=1e-6)


def test_dual_certificates_at_optimum():
    cone = ConeSpec(blocks=(("l", 3),))
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 3))
    x_feas = rng.uniform(0.5, 1.5, size=3)
    b = A @ x_feas
    c = rng.uniform(0.5, 1.5, size=3)
    res = solve_conic(A, b, c, cone, IpmSettings())
    assert res.status == "optimal"
    # primal and dual feasibility plus complementarity at the reported point
    assert np.linalg.norm(A @ res.x - b) <= 1e-7 * (1 + np.linalg.norm(b))
    assert np.all(res.x >= -1e-9)
    assert np.all(c - A.T @ res.y >= -1e-8)
    assert abs(res.x @ (c - A.T @ res.y)) <= 1e-6


def test_history_and_iterations_reported():
    res = solve_conic(*_lp_toy(), IpmSettings())
    assert res.iterations >= 1
    assert len(res.history) == res.iterations
    assert res.gap_rel <= 1e-8


def _interior_point(cone, rng):
    """A random strictly interior cone point."""
    x = np.zeros(cone.total_len)
    for tag, size, sl in cone.slices():
        if tag == "s":
            F = rng.normal(size=(size, size))
            x[sl] = svec(F @ F.T + size * np.eye(size))
        else:
            x[sl] = rng.uniform(0.5, 2.0, size=size)
    return x


def _dense_w(sc, cone):
    """The NT scaling W as a dense matrix, one basis vector at a time."""
    out = np.zeros((cone.total_len, cone.total_len))
    for (tag, size, sl), blk in zip(cone.slices(), sc.blocks):
        R = blk[2]
        if tag == "s":
            basis = np.eye(svec_dim(size))
            for j in range(basis.shape[0]):
                out[sl, sl.start + j] = svec(R.T @ smat(basis[:, j], size) @ R)
        else:
            out[sl, sl] = np.diag(R)
    return out


def test_blockwise_wsq_matches_dense_operator():
    cone = ConeSpec(blocks=(("s", 3), ("l", 2), ("s", 1)))
    rng = np.random.default_rng(5)
    sc = _Scaling(cone, _interior_point(cone, rng), _interior_point(cone, rng))
    W = _dense_w(sc, cone)
    A = rng.normal(size=(4, cone.total_len))
    v = rng.normal(size=cone.total_len)
    B = sc.scaled_rows(A, _row_mats(A, cone))
    assert np.max(np.abs(B - A @ W.T)) <= 1e-12 * np.max(np.abs(A @ W.T))
    # the Schur complement B B^T is A W^T W A^T, and exactly symmetric
    S, ref = B @ B.T, A @ W.T @ W @ A.T
    assert np.array_equal(S, S.T)
    assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))
    Wv = sc.apply_wsq(v)
    assert np.max(np.abs(Wv - W.T @ W @ v)) <= 1e-12 * np.max(np.abs(W.T @ W @ v))


@pytest.mark.parametrize("n", [_TRSV_BLOCK - 7, _TRSV_BLOCK, 2 * _TRSV_BLOCK + 5])
def test_blocked_cholesky_solve_matches_linalg_solve(n):
    rng = np.random.default_rng(n)
    F = rng.normal(size=(n, n))
    M = F @ F.T + n * np.eye(n)
    rhs = rng.normal(size=n)
    x = _cho_solve(np.linalg.cholesky(M), rhs)
    ref = np.linalg.solve(M, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batched_svec_smat_match_single_matrices():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(2, 3, 4, 4))
    S = S + np.swapaxes(S, -1, -2)
    V = svec(S)
    assert V.shape == (2, 3, svec_dim(4))
    for i in range(2):
        for j in range(3):
            assert np.array_equal(V[i, j], svec(S[i, j]))
            assert np.array_equal(smat(V, 4)[i, j], smat(V[i, j], 4))


def test_schur_complement_factored_once_per_step(monkeypatch):
    factored = []

    class Counting(_NormalFactor):
        def __init__(self, M):
            factored.append(M.shape)
            super().__init__(M)

    monkeypatch.setattr(conic, "_NormalFactor", Counting)
    res = solve_conic(*_mixed_toy(), IpmSettings())
    assert res.status == "optimal"
    # every iteration but the converged last one takes exactly one step
    assert len(factored) == res.iterations - 1


def test_breakdown_ends_as_stalled(monkeypatch):
    calls = []
    real = conic._max_step

    def failing(cone, x, dx):
        calls.append(1)
        if len(calls) > 8:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(cone, x, dx)

    monkeypatch.setattr(conic, "_max_step", failing)
    res = solve_conic(*_lp_toy(), IpmSettings())
    assert res.status == "stalled"
    assert res.iterations == 3
    # the iterate whose step broke down is the one returned
    assert (res.rp_rel, res.rd_rel, res.gap_rel) == res.history[-1]


def test_non_improving_step_ends_as_stalled_with_the_previous_iterate(monkeypatch):
    steps = []
    real = conic._step

    def backwards(*args):
        # the second step goes the wrong way
        steps.append(1)
        *direction, alpha = real(*args)
        return (*direction, -alpha if len(steps) == 2 else alpha)

    monkeypatch.setattr(conic, "_step", backwards)
    res = solve_conic(*_lp_toy(), IpmSettings())
    assert res.status == "stalled"
    assert res.iterations == 3
    assert (res.rp_rel, res.rd_rel, res.gap_rel) == res.history[1]


def test_infeasible_psd_problem_returns_a_farkas_certificate():
    A, b, c, cone = _infeasible_toy()
    res = solve_conic(A, b, c, cone, IpmSettings())
    assert res.status == "infeasible"
    assert b @ res.y == pytest.approx(1.0)
    # -A^T y is PSD to within the tolerance, which no x with A x = b allows
    assert np.linalg.eigvalsh(smat(-A.T @ res.y, 2))[0] >= -1e-10


@pytest.mark.parametrize(
    "toy, status, iterations",
    [
        (_lp_toy, "optimal", 7),
        (_sdp_toy, "optimal", 8),
        (_mixed_toy, "optimal", 7),
        (_infeasible_toy, "infeasible", 8),
    ],
)
def test_without_a_predicate_the_toys_keep_their_ending(toy, status, iterations):
    res = solve_conic(*toy(), IpmSettings())
    assert (res.status, res.iterations) == (status, iterations)
    # a predicate that never holds leaves the run as it is
    never = solve_conic(*toy(), IpmSettings(), accept=lambda y: False)
    assert (never.status, never.iterations) == (status, iterations)
    assert np.array_equal(never.x, res.x) and np.array_equal(never.y, res.y)


def test_accept_ends_the_run_at_the_first_iterate_that_has_it():
    A, b, c, cone = _sdp_toy()
    full = solve_conic(A, b, c, cone, IpmSettings())
    lam_min = float(np.linalg.eigvalsh(smat(c, 3))[0])
    seen = []

    def close(y):
        seen.append(y.copy())
        return abs(float(b @ y) - lam_min) <= 1.0e-3

    res = solve_conic(A, b, c, cone, IpmSettings(), accept=close)
    assert res.status == "accepted"
    assert res.iterations == len(seen) < full.iterations
    assert not any(abs(float(b @ y) - lam_min) <= 1.0e-3 for y in seen[:-1])
    # the accepted iterate is returned, on the same path as the full run
    assert np.array_equal(res.y, seen[-1])
    assert res.history == full.history[: res.iterations]
    # the starting point y = 0 is the first iterate a predicate sees
    first = solve_conic(A, b, c, cone, IpmSettings(), accept=lambda y: True)
    assert (first.status, first.iterations) == ("accepted", 1)
    assert np.array_equal(first.y, np.zeros(1))
