import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab import conic
from lurestab.conic import (
    _BLOCKED_MIN_ROWS,
    _TRSV_BLOCK,
    ConeSpec,
    _cho_solve,
    _inverse_blocks,
    _FormedB,
    _NormalFactor,
    _orthant_rows,
    _scaled_newton,
    _Scaling,
    _UnformedB,
    smat,
    solve_conic,
    svec,
    svec_dim,
)
from helpers import dense_w, formed_rows, interior_point
from oracles import unscaled_max_step


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
    # the PSD block's svec coordinates, then the orthant's entries
    cone = ConeSpec(3, 2)
    assert (cone.psd, cone.orthant) == (slice(0, 6), slice(6, 8))
    assert (cone.total_len, cone.barrier_degree) == (8, 5)
    # an empty orthant is allowed, a PSD block of size 0 or a negative
    # orthant is not
    empty = ConeSpec(2, 0)
    assert (empty.psd, empty.orthant, empty.total_len) == (slice(0, 3), slice(3, 3), 3)
    for d, p in ((0, 2), (-1, 0), (2, -1)):
        with pytest.raises(ValueError):
            ConeSpec(d, p)


def _lp_toy():
    # min x0 subject to x0 + x1 = 1, x >= 0; x0 is the 1 x 1 PSD block,
    # whose NT scaling is that of one orthant entry
    return np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 0.0]), ConeSpec(1, 1)


def _sdp_toy():
    # min <C, X> s.t. tr X = 1, X >= 0: the smallest eigenvalue of C
    rng = np.random.default_rng(1)
    Cm = rng.normal(size=(3, 3))
    Cm = 0.5 * (Cm + Cm.T)
    return svec(np.eye(3))[None, :], np.array([1.0]), svec(Cm), ConeSpec(3, 0)


def _mixed_toy():
    A = np.zeros((2, 4))
    A[0, :3] = svec(np.eye(2))
    A[0, 3] = 1.0
    A[1, 3] = 1.0
    c = np.zeros(4)
    c[:3] = svec(np.diag([1.0, 2.0]))
    return A, np.array([2.0, 0.5]), c, ConeSpec(2, 1)


def _infeasible_toy():
    # tr X = 1 and X_01 = 1 have no PSD solution
    A = np.vstack([svec(np.eye(2)), svec(np.array([[0.0, 0.5], [0.5, 0.0]]))])
    return A, np.array([1.0, 1.0]), np.zeros(3), ConeSpec(2, 0)


def test_lp_solve():
    # x = (0, 1)
    res = solve_conic(*_lp_toy())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.0, abs=1e-8)
    assert res.x[1] == pytest.approx(1.0, abs=1e-8)


def test_sdp_min_eigenvalue():
    A, b, c, cone = _sdp_toy()
    res = solve_conic(A, b, c, cone)
    assert res.status == "optimal"
    lam_min = np.linalg.eigvalsh(smat(c, 3))[0]
    assert float(c @ res.x) == pytest.approx(lam_min, abs=1e-7)
    X = smat(res.x, 3)
    assert np.linalg.eigvalsh(X)[0] >= -1e-9


def test_mixed_cone_problem():
    # one PSD block and one orthant block tied by a shared budget
    res = solve_conic(*_mixed_toy())
    assert res.status == "optimal"
    X = smat(res.x[:3], 2)
    # weight concentrates on the cheap eigendirection
    assert np.trace(X) == pytest.approx(1.5, abs=1e-7)
    assert X[0, 0] == pytest.approx(1.5, abs=1e-6)


def test_dual_certificates_at_optimum():
    # an LP: the 1 x 1 PSD block and two orthant entries
    cone = ConeSpec(1, 2)
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 3))
    x_feas = rng.uniform(0.5, 1.5, size=3)
    b = A @ x_feas
    c = rng.uniform(0.5, 1.5, size=3)
    res = solve_conic(A, b, c, cone)
    assert res.status == "optimal"
    # primal and dual feasibility plus complementarity at the reported point
    assert np.linalg.norm(A @ res.x - b) <= 1e-7 * (1 + np.linalg.norm(b))
    assert np.all(res.x >= -1e-9)
    assert np.all(c - A.T @ res.y >= -1e-8)
    assert abs(res.x @ (c - A.T @ res.y)) <= 1e-6


def test_history_and_iterations_reported():
    res = solve_conic(*_lp_toy())
    assert res.iterations >= 1
    assert len(res.history) == res.iterations
    assert res.gap_rel <= 1e-8


_CONE = ConeSpec(3, 2)


def test_blockwise_wsq_matches_dense_operator():
    cone = _CONE
    rng = np.random.default_rng(5)
    x, s = interior_point(cone, rng), interior_point(cone, rng)
    sc = _Scaling(cone, x, s)
    W = dense_w(sc)
    A = rng.normal(size=(4, cone.total_len))
    S = np.empty((4, 4))
    B = sc.schur(A, *formed_rows(A, cone), S).B
    assert np.max(np.abs(B - A @ W.T)) <= 1e-12 * np.max(np.abs(A @ W.T))
    # the Schur complement is A W^T W A^T, and exactly symmetric
    ref = A @ W.T @ W @ A.T
    assert np.array_equal(S, S.T)
    assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))
    # W is the NT scaling: W^{-T} x = W s = lam, so W^T W s = x
    assert np.max(np.abs(W @ s - sc.lam)) <= 1e-12 * np.max(np.abs(sc.lam))
    assert np.max(np.abs(np.linalg.solve(W.T, x) - sc.lam)) <= 1e-12 * np.max(np.abs(sc.lam))
    assert np.max(np.abs(W.T @ W @ s - x)) <= 1e-12 * np.max(np.abs(x))
    # the scaled-space maps agree with the dense W, one vector or a stack
    V = rng.normal(size=(2, cone.total_len))
    assert np.max(np.abs(sc.scale_s(V) - V @ W.T)) <= 1e-12 * np.max(np.abs(V @ W.T))
    assert np.array_equal(sc.scale_s(V)[1], sc.scale_s(V[1]))
    assert np.max(np.abs(sc.unscale_to_x(V[0]) - W.T @ V[0])) <= 1e-12 * np.max(np.abs(W.T @ V[0]))


def _sparse_rows(cone, nrows, rng):
    """Random rows whose orthant columns hold, in turn, zero, one and three
    nonzeros."""
    A = rng.normal(size=(nrows, cone.total_len))
    for j, k in enumerate(range(cone.orthant.start, cone.orthant.stop)):
        keep = rng.permutation(nrows)[: (0, 1, 3)[j % 3]]
        col = np.zeros(nrows)
        col[keep] = A[keep, k]
        A[:, k] = col
    return A


@pytest.mark.parametrize(
    "cone",
    [
        ConeSpec(4, 0),
        ConeSpec(1, 9),
        _CONE,
        # an orthant of one column with no nonzero
        ConeSpec(2, 1),
    ],
    ids=["psd", "orthant", "mixed", "empty-orthant"],
)
def test_schur_complement_matches_the_dense_product(cone):
    rng = np.random.default_rng(11)
    sc = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
    W = dense_w(sc)
    A = _sparse_rows(cone, 5, rng)
    S = np.empty((5, 5))
    op = sc.schur(A, *formed_rows(A, cone), S)
    ref = A @ W.T @ W @ A.T
    assert isinstance(op, _FormedB)
    assert _rel(op.B - A @ W.T, A @ W.T) <= 1e-12
    assert _rel(S - ref, ref) <= 1e-12
    assert np.array_equal(S, S.T)


class _DenseRows:
    """A PSD block's rows A_p (nrows, d(d+1)/2) as the rows object
    solve_conic's psd_rows takes, every product taken densely; term(R, S)
    writes S's lower triangle only and records the factors it is called
    with."""

    def __init__(self, A_p, size):
        self.A_p, self.size, self.seen = A_p, size, []

    def term(self, R, S):
        self.seen.append(R)
        Bp = svec(np.matmul(R.T, smat(self.A_p, self.size) @ R))
        lower = np.tril_indices(len(S))
        S[lower] = (Bp @ Bp.T)[lower]

    def apply(self, V, R=None):
        return svec(V if R is None else R @ V @ R.T) @ self.A_p.T

    def adjoint(self, y, R=None):
        Z = smat(y @ self.A_p, self.size)
        return Z if R is None else R.T @ Z @ R


def test_a_structured_psd_term_replaces_forming_b():
    cone = ConeSpec(3, 4)
    rng = np.random.default_rng(13)
    sc = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
    W = dense_w(sc)
    A = _sparse_rows(cone, 5, rng)
    # the caller's rows, here the PSD block's taken densely
    rows = _DenseRows(A[:, :6], 3)

    # with the rows object, A is read for the orthant's columns only; S
    # is its lower triangle
    S = np.full((5, 5), np.nan)
    op = sc.schur(A[:, 6:], rows, _orthant_rows(A[:, 6:]), S)
    assert isinstance(op, _UnformedB)
    assert len(rows.seen) == 1 and rows.seen[0] is sc.R
    ref = A @ W.T @ W @ A.T
    assert _rel(np.tril(S) - np.tril(ref), ref) <= 1e-12
    # B u and B^T y without B, for one vector or a stack
    U, Y = rng.normal(size=(2, cone.total_len)), rng.normal(size=(2, 5))
    assert _rel(op.apply(U) - U @ (A @ W.T).T, U @ (A @ W.T).T) <= 1e-12
    assert _rel(op.adjoint(Y[0]) - Y[0] @ (A @ W.T), Y[0] @ (A @ W.T)) <= 1e-12
    assert _rel(op.adjoint(Y)[1] - op.adjoint(Y[1]), op.adjoint(Y[1])) <= 1e-14


def test_orthant_pairs_cover_every_nonzero_pair():
    rng = np.random.default_rng(12)
    A_l = _sparse_rows(ConeSpec(1, 7), 4, rng)[:, 1:]
    rows = _orthant_rows(A_l)
    flat, col, prod = rows.at[rows.pair_at], rows.pair_col, rows.pair_prod
    nnz = np.count_nonzero(A_l, axis=0)
    assert flat.size == col.size == prod.size == int(np.sum(nnz ** 2))
    assert np.all(np.diff(col) >= 0)
    # the positions are distinct, and every one has a pair
    assert np.all(np.diff(rows.at) > 0) and np.array_equal(np.unique(rows.pair_at),
                                                           np.arange(rows.at.size))
    i, j = np.divmod(flat, 4)
    assert np.array_equal(prod, A_l[i, col] * A_l[j, col])
    d = rng.uniform(0.5, 2.0, size=7)
    S = np.bincount(flat, prod * d[col], 16).reshape(4, 4)
    assert _rel(S - (A_l * d) @ A_l.T, (A_l * d) @ A_l.T) <= 1e-12
    S = np.zeros((4, 4))
    rows.add_term(np.sqrt(d), S)
    assert _rel(S - (A_l * d) @ A_l.T, (A_l * d) @ A_l.T) <= 1e-12
    assert np.array_equal(S, S.T)
    # the same nonzeros give A_l x and A_l^T y, for one vector or a stack
    X, Y = rng.normal(size=(2, 7)), rng.normal(size=(2, 4))
    assert _rel(rows.apply(X) - X @ A_l.T, X @ A_l.T) <= 1e-14
    assert _rel(rows.adjoint(Y[0]) - A_l.T @ Y[0], A_l.T @ Y[0]) <= 1e-14
    assert np.array_equal(rows.adjoint(Y)[1], rows.adjoint(Y[1]))
    # no nonzero pair at all: the orthant adds nothing
    empty = _orthant_rows(np.zeros((3, 2)))
    assert empty.at.size == empty.pair_at.size == 0
    S = np.eye(3)
    empty.add_term(np.ones(2), S)
    assert np.array_equal(S, np.eye(3))
    assert np.array_equal(empty.apply(np.ones((2, 2))), np.zeros((2, 3)))


def test_the_orthant_adds_in_place_what_its_pairs_sum_to():
    # each entry gains the sum of its pairs in their order, the entries of
    # one bincount over every pair's flat position, bit for bit
    rng = np.random.default_rng(14)
    A_l = _sparse_rows(ConeSpec(1, 12), 6, rng)[:, 1:]
    rows = _orthant_rows(A_l)
    w = rng.uniform(0.5, 2.0, size=12)
    flat = rows.at[rows.pair_at]
    term = np.bincount(flat, rows.pair_prod * (w * w)[rows.pair_col], 36).reshape(6, 6)
    assert np.bincount(flat).max() > 1  # some entry sums several pairs
    S0 = rng.normal(size=(6, 6))
    S = S0.copy()
    rows.add_term(w, S)
    assert np.array_equal(S, S0 + term)


def _rel(err, ref):
    return np.max(np.abs(err)) / np.max(np.abs(ref))


@pytest.mark.parametrize(
    "seed, formed",
    [pytest.param(seed, True, id=str(seed)) for seed in range(4)]
    + [pytest.param(seed, False, id=f"unformed-{seed}") for seed in range(4)],
)
def test_scaled_direction_meets_the_unscaled_newton_equations(seed, formed):
    cone = _CONE
    rng = np.random.default_rng(seed)
    sc = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
    W = dense_w(sc)
    A = rng.normal(size=(4, cone.total_len))
    S = np.empty((4, 4))
    B = sc.schur(A, *formed_rows(A, cone), S)
    if not formed:
        # B through the PSD block's rows, taken densely, and the orthant's
        psd_rows = _DenseRows(A[:, cone.psd], cone.d)
        B = _UnformedB(cone, psd_rows, _orthant_rows(A[:, cone.orthant]), sc)
    normal = _NormalFactor(S)
    r1 = rng.normal(size=(2, 4))
    r2, q = rng.normal(size=(2, 2, cone.total_len))
    U, DY = _scaled_newton(B, normal, r1, sc.scale_s(r2), q)
    for k in range(2):
        u, dy = _scaled_newton(B, normal, r1[k], sc.scale_s(r2[k]), q[k])
        assert _rel(u - U[k], U[k]) <= 1e-12 and _rel(dy - DY[k], DY[k]) <= 1e-12
        # back in the original coordinates: dx = W^T u and ds = W^{-1} v, v = q - u
        dx = W.T @ u
        ds = np.linalg.solve(W, q[k] - u)
        wdc = W.T @ q[k]
        assert _rel(A @ dx - r1[k], r1[k]) <= 1e-10
        assert _rel(A.T @ dy + ds - r2[k], r2[k]) <= 1e-10
        assert _rel(dx + W.T @ W @ ds - wdc, wdc) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_scaled_step_length_matches_the_unscaled_reference(seed):
    cone = _CONE
    rng = np.random.default_rng(100 + seed)
    x, s = interior_point(cone, rng), interior_point(cone, rng)
    sc = _Scaling(cone, x, s)
    W = dense_w(sc)
    dx, ds = rng.normal(size=(2, cone.total_len)) * (1.0 + 3.0 * seed)
    u, v = np.linalg.solve(W.T, dx), W @ ds
    ref = min(unscaled_max_step(cone, x, dx), unscaled_max_step(cone, s, ds))
    assert np.isfinite(ref)
    assert sc.max_step(u, v) == pytest.approx(ref, rel=1e-10)
    # each side alone: a direction into the cone leaves the other unbounded
    assert sc.max_step(u, sc.lam) == pytest.approx(unscaled_max_step(cone, x, dx), rel=1e-10)
    assert sc.max_step(sc.lam, v) == pytest.approx(unscaled_max_step(cone, s, ds), rel=1e-10)
    assert sc.max_step(sc.lam, sc.lam) == np.inf


@pytest.mark.parametrize("singular", [False, True])
def test_stacked_cholesky_matches_factoring_each_block_alone(singular):
    cone = _CONE
    rng = np.random.default_rng(7)
    x, s = interior_point(cone, rng), interior_point(cone, rng)
    if singular:
        # the 3 x 3 block of x is numerically singular: its Cholesky fails,
        # and so does the scaling, which ends the run as "stalled"
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        x[:6] = svec((Q * np.array([2.0, 1.0, -1.0e-13])) @ Q.T)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(smat(x[:6], 3))
        with pytest.raises(np.linalg.LinAlgError):
            _Scaling(cone, x, s)
        return
    sc = _Scaling(cone, x, s)
    orth, psd = cone.orthant, cone.psd
    assert np.array_equal(sc.w, np.sqrt(x[orth] / s[orth]))
    assert np.array_equal(sc.lam[orth], np.sqrt(x[orth] * s[orth]))
    # the PSD block's NT scaling, x and s factored each on its own
    Lx, Ls = np.linalg.cholesky(smat(x[psd], cone.d)), np.linalg.cholesky(smat(s[psd], cone.d))
    _, sig, Vt = np.linalg.svd(Ls.T @ Lx)
    ref = (Lx @ Vt.T) * np.clip(sig, 1.0e-150, None) ** -0.5
    assert np.array_equal(sc.R, ref)
    assert np.array_equal(sc.R @ sc.R.T, ref @ ref.T)
    assert np.array_equal(sc.sig, sig)
    assert np.array_equal(sc.lam[psd], svec(np.diag(sig)))


def test_a_schur_complement_that_stays_indefinite_raises():
    # every regularization fails on a negative definite matrix
    with pytest.raises(np.linalg.LinAlgError):
        _NormalFactor(-np.eye(3))


@pytest.mark.parametrize("n", [_BLOCKED_MIN_ROWS - 42, _BLOCKED_MIN_ROWS + 58])
def test_the_factor_reads_only_the_lower_triangle(n):
    # the Schur complement is defined by its lower triangle: a NaN strict
    # upper triangle leaves L and every diagonal block's inverse as they
    # are, bit for bit, on numpy's Cholesky and on the blocked one
    rng = np.random.default_rng(n)
    F = rng.normal(size=(n, n))
    M = F @ F.T + n * np.eye(n)
    ref, got = _NormalFactor(M), _NormalFactor(np.where(np.tri(n, dtype=bool), M, np.nan))
    assert np.array_equal(got.L, ref.L)
    assert len(got.inv) == len(ref.inv) == -(-n // _TRSV_BLOCK)
    assert all(np.array_equal(Li, ref_i) for Li, ref_i in zip(got.inv, ref.inv))


@pytest.mark.parametrize(
    "n", [1, _TRSV_BLOCK - 7, _TRSV_BLOCK, _TRSV_BLOCK + 1, 2 * _TRSV_BLOCK + 5]
)
def test_blocked_cholesky_solve_matches_linalg_solve(n):
    rng = np.random.default_rng(n)
    F = rng.normal(size=(n, n))
    M = F @ F.T + n * np.eye(n)
    L = np.linalg.cholesky(M)
    inv = _inverse_blocks(L)
    # one inverse per block of _TRSV_BLOCK rows; the last may be shorter
    sizes = [Li.shape[0] for Li in inv]
    assert sum(sizes) == n and all(size == _TRSV_BLOCK for size in sizes[:-1])
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 2))):
        x = _cho_solve(L, inv, rhs)
        ref = np.linalg.solve(M, rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(_NormalFactor(M).solve(rhs.T), x.T)


@pytest.mark.parametrize("n", [_BLOCKED_MIN_ROWS + 8, 611])
def test_blocked_factor_solves_like_linalg_solve(n):
    # from _BLOCKED_MIN_ROWS rows on, up to the ladder's largest Schur
    # complement (n = m = 20)
    rng = np.random.default_rng(n)
    F = rng.normal(size=(n, n))
    M = F @ F.T + n * np.eye(n)
    normal = _NormalFactor(M)
    # one inverse per block of _TRSV_BLOCK rows, the last one shorter
    sizes = [Li.shape[0] for Li in normal.inv]
    assert sum(sizes) == n and set(sizes[:-1]) == {_TRSV_BLOCK} and sizes[-1] < _TRSV_BLOCK
    L = normal.L
    assert np.array_equal(L, np.tril(L))
    assert np.max(np.abs(L @ L.T - M)) <= 1e-14 * np.max(np.abs(M))
    for k, Li in zip(range(0, n, _TRSV_BLOCK), normal.inv):
        e = k + Li.shape[0]
        assert np.max(np.abs(Li @ L[k:e, k:e] - np.eye(e - k))) <= 1e-13
    for rhs in (rng.normal(size=n), rng.normal(size=(2, n))):
        x = normal.solve(rhs)
        ref = np.linalg.solve(M, rhs.T).T
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_the_refined_panel_meets_its_columns_to_rounding():
    # the first diagonal block has condition 1e12: the panel C_low L_kk^{-T}
    # alone, through L_kk's inverse, misses P L_kk^T = C_low by several
    # times rounding (2.7e-15 to 7.1e-15 on twelve seeds); refined once it
    # stays within 1.2e-15
    n, k = _BLOCKED_MIN_ROWS + 8, _TRSV_BLOCK
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
    A = (Q * np.logspace(0, -12, k)) @ Q.T
    G = np.tril(rng.normal(size=(n, n)))
    G[:k, :k] = np.linalg.cholesky(0.5 * (A + A.T))
    G[k:, k:] += n * np.eye(n - k)
    M = G @ G.T
    L = _NormalFactor(M).L
    panel = L[k:, :k] @ L[:k, :k].T - M[k:, :k]
    assert np.max(np.abs(panel)) <= 2e-15 * np.max(np.abs(M[k:, :k]))


def test_a_blocked_factor_indefinite_in_its_third_block_retries_then_raises(monkeypatch):
    n = _BLOCKED_MIN_ROWS + 8
    rng = np.random.default_rng(3)
    F = rng.normal(size=(n, n))
    M = F @ F.T + n * np.eye(n)
    # beyond every regularization, which stops at trace(M) / n * 1e-2
    bad = 2 * _TRSV_BLOCK + 5
    M[bad, bad] = -10.0 * np.trace(M) / n
    attempts, factored = [], []
    real_blocked, real_cholesky = conic._blocked_cholesky, np.linalg.cholesky
    monkeypatch.setattr(conic, "_blocked_cholesky",
                        lambda Mr: attempts.append(Mr[0, 0] - M[0, 0]) or real_blocked(Mr))
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: factored.append(a.shape) or real_cholesky(a))
    with pytest.raises(np.linalg.LinAlgError):
        _NormalFactor(M)
    # eight attempts at growing shifts, each failing at its third block
    assert len(attempts) == 8 and attempts[0] == 0.0
    assert all(0 < a < b for a, b in zip(attempts[1:], attempts[2:]))
    assert factored == [(_TRSV_BLOCK, _TRSV_BLOCK)] * 3 * 8


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
    res = solve_conic(*_mixed_toy())
    assert res.status == "optimal"
    # every iteration but the converged last one takes exactly one step
    assert len(factored) == res.iterations - 1


def test_lapack_calls_per_step_are_pinned(monkeypatch):
    # the per-step LAPACK budget on a cone with one PSD block and an orthant
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            calls.append((name, np.ndim(a)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)

    for name in ("cholesky", "svd", "eigvalsh", "solve", "eigh", "inv", "qr"):
        counting(name)
    steps = []
    real_max_step = _Scaling.max_step

    def max_step(self, u, v):
        steps.append(len(calls))
        out = real_max_step(self, u, v)
        # one eigvalsh, nothing else
        assert calls[steps[-1]:] == [("eigvalsh", 3)]
        return out

    monkeypatch.setattr(_Scaling, "max_step", max_step)
    res = solve_conic(*_mixed_toy())
    assert res.status == "optimal"
    n_steps = res.iterations - 1
    per_step = [
        ("cholesky", 3),  # x and s of the PSD block, stacked
        ("svd", 2),
        ("cholesky", 2),  # the Schur complement
        ("solve", 2),  # the inverse of its factor, one block
        ("eigvalsh", 3),  # the predictor's max_step
        ("eigvalsh", 3),  # the corrector's max_step
    ]
    assert calls == per_step * n_steps
    assert len(steps) == 2 * n_steps


def test_orthant_pairs_built_once_per_solve(monkeypatch):
    built = []
    real = conic._orthant_rows

    def counting(A_l):
        out = real(A_l)
        built.append((A_l, out))
        return out

    monkeypatch.setattr(conic, "_orthant_rows", counting)
    A, b, c, cone = _mixed_toy()
    res = solve_conic(A, b, c, cone)
    assert res.status == "optimal" and res.iterations > 2
    # once for the orthant, not once per step
    assert len(built) == 1
    A_l, rows = built[0]
    at, col, prod = rows.pair_at, rows.pair_col, rows.pair_prod
    assert at.size == col.size == prod.size == int(np.sum(np.count_nonzero(A_l, axis=0) ** 2))


def test_breakdown_ends_as_stalled(monkeypatch):
    steps = []
    real = conic._step

    def failing(*args):
        # the third step breaks down
        steps.append(1)
        if len(steps) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(*args)

    monkeypatch.setattr(conic, "_step", failing)
    res = solve_conic(*_lp_toy())
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
    res = solve_conic(*_lp_toy())
    assert res.status == "stalled"
    assert res.iterations == 3
    assert (res.rp_rel, res.rd_rel, res.gap_rel) == res.history[1]


def test_infeasible_psd_problem_returns_a_farkas_certificate():
    A, b, c, cone = _infeasible_toy()
    res = solve_conic(A, b, c, cone)
    assert res.status == "infeasible"
    assert b @ res.y == pytest.approx(1.0)
    # -A^T y is PSD to within the tolerance, which no x with A x = b allows
    assert np.linalg.eigvalsh(smat(-A.T @ res.y, 2))[0] >= -1e-10


@pytest.mark.parametrize(
    "toy, status, iterations",
    [
        (_lp_toy, "optimal", 7),
        (_sdp_toy, "optimal", 8),
        (_mixed_toy, "optimal", 8),
        (_infeasible_toy, "infeasible", 8),
    ],
)
def test_without_a_predicate_the_toys_keep_their_ending(toy, status, iterations):
    res = solve_conic(*toy())
    assert (res.status, res.iterations) == (status, iterations)
    # a predicate that never holds leaves the run as it is
    never = solve_conic(*toy(), accept=lambda y: False)
    assert (never.status, never.iterations) == (status, iterations)
    assert np.array_equal(never.x, res.x) and np.array_equal(never.y, res.y)


def test_accept_ends_the_run_at_the_first_iterate_that_has_it():
    A, b, c, cone = _sdp_toy()
    full = solve_conic(A, b, c, cone)
    lam_min = float(np.linalg.eigvalsh(smat(c, 3))[0])
    seen = []

    def close(y):
        seen.append(y.copy())
        return abs(float(b @ y) - lam_min) <= 1.0e-3

    res = solve_conic(A, b, c, cone, accept=close)
    assert res.status == "accepted"
    assert res.iterations == len(seen) < full.iterations
    assert not any(abs(float(b @ y) - lam_min) <= 1.0e-3 for y in seen[:-1])
    # the accepted iterate is returned, on the same path as the full run
    assert np.array_equal(res.y, seen[-1])
    assert res.history == full.history[: res.iterations]
    # the starting point y = 0 is the first iterate a predicate sees
    first = solve_conic(A, b, c, cone, accept=lambda y: True)
    assert (first.status, first.iterations) == ("accepted", 1)
    assert np.array_equal(first.y, np.zeros(1))


def test_no_rows_returns_the_identity_point_as_new_arrays():
    _, _, c, cone = _mixed_toy()
    res = solve_conic(np.zeros((0, cone.total_len)), np.zeros(0), c, cone)
    assert (res.status, res.iterations) == ("optimal", 0)
    e = conic._identity_point(cone)
    assert np.array_equal(res.x, e) and np.array_equal(res.s, e)
    # writable arrays of their own, not the cached read-only point
    for arr in (res.x, res.s):
        assert arr.flags.writeable and not np.shares_memory(arr, e)
    assert not np.shares_memory(res.x, res.s)
    res.x[:] = 5.0
    assert np.array_equal(conic._identity_point(cone), e) and e[0] == 1.0
    assert res.y.shape == (0,)


# The kernels of _Scaling and _cho_solve written as plain smat/svec round
# trips: the fused kernels must equal them bit for bit.


def _scatter_smat(x, d):
    rows, cols = np.triu_indices(d)
    vals = np.asarray(x, dtype=float) / np.where(rows == cols, 1.0, np.sqrt(2.0))
    X = np.empty(vals.shape[:-1] + (d * d,))
    X[..., rows * d + cols] = vals
    X[..., cols * d + rows] = vals
    return X.reshape(vals.shape[:-1] + (d, d))


def _gather_svec(X):
    d = X.shape[-1]
    rows, cols = np.triu_indices(d)
    flat = X.reshape(X.shape[:-2] + (d * d,))
    return flat[..., rows * d + cols] * np.where(rows == cols, 1.0, np.sqrt(2.0))


def _round_trip_kernels(sc, x, s):
    """lam, and the kernels as functions, by smat/svec round trips."""
    cone, R, sig, w = sc.cone, sc.R, sc.sig, sc.w
    psd, orth = cone.psd, cone.orthant
    lam_l = np.sqrt(x[orth] * s[orth])
    lam = np.empty(cone.total_len)
    lam[psd], lam[orth] = _gather_svec(np.diag(sig)), lam_l

    def partwise(orthant, psd_part):
        def kernel(*args):
            out = np.empty_like(args[0])
            out[..., psd] = _gather_svec(psd_part(*[_scatter_smat(a[..., psd], cone.d) for a in args]))
            out[..., orth] = orthant(*[a[..., orth] for a in args])
            return out

        return kernel

    def max_step(u, v):
        r = sig ** -0.5
        UV = _scatter_smat(np.stack([u[psd], v[psd]]), cone.d) * (r[:, None] * r[None, :])
        least = min(0.0, float(np.min(np.linalg.eigvalsh(UV)[:, 0])))
        if cone.p:
            least = min(least, float(np.min(u[orth] / lam_l)), float(np.min(v[orth] / lam_l)))
        return -1.0 / least if least < 0 else np.inf

    return lam, {
        "scale_s": partwise(lambda d: d * w, lambda D: R.T @ D @ R),
        "unscale_to_x": partwise(lambda u: u * w, lambda U: R @ U @ R.T),
        "jordan_prod": partwise(lambda u, v: u * v, lambda U, V: 0.5 * (U @ V + V @ U)),
        "jordan_solve_lam": partwise(
            lambda k: k / lam_l, lambda K: K / (0.5 * (sig[:, None] + sig[None, :]))
        ),
        "max_step": max_step,
    }


@pytest.mark.parametrize(
    "cone", [_CONE, ConeSpec(1, 5), ConeSpec(4, 0)], ids=["mixed", "orthant", "psd"]
)
@pytest.mark.parametrize("seed", range(5))
def test_fused_kernels_equal_the_round_trips_bit_for_bit(cone, seed):
    rng = np.random.default_rng(200 + seed)
    x, s = interior_point(cone, rng), interior_point(cone, rng)
    sc = _Scaling(cone, x, s)
    lam, ref = _round_trip_kernels(sc, x, s)
    assert np.array_equal(sc.lam, lam)
    pairs = rng.normal(size=(20, 2, cone.total_len))
    assert [sc.max_step(u, v) for u, v in pairs] == [ref["max_step"](u, v) for u, v in pairs]
    (u, v), V = pairs[0], pairs[1]
    assert sc.max_step(sc.lam, sc.lam) == ref["max_step"](lam, lam) == np.inf
    assert np.array_equal(sc.jordan_prod(u, v), ref["jordan_prod"](u, v))
    assert np.array_equal(sc.jordan_solve_lam(u), ref["jordan_solve_lam"](u))
    for name in ("scale_s", "unscale_to_x"):
        # one vector, and a stack of them as the step passes
        assert np.array_equal(getattr(sc, name)(u), ref[name](u))
        assert np.array_equal(getattr(sc, name)(V), ref[name](V))


def _blocked_cho_solve(L, inv, rhs):
    """_cho_solve's blocked substitutions, the path of factors over
    _TRSV_BLOCK rows, for any number of blocks."""
    blocks = list(zip(range(0, L.shape[0], _TRSV_BLOCK), inv))
    z = np.empty_like(rhs)
    for k, Li in blocks:
        e = k + Li.shape[0]
        z[k:e] = Li @ (rhs[k:e] - L[k:e, :k] @ z[:k])
    x = np.empty_like(rhs)
    for k, Li in reversed(blocks):
        e = k + Li.shape[0]
        x[k:e] = Li.T @ (z[k:e] - L[e:, k:e].T @ x[e:])
    return x


@pytest.mark.parametrize("n", [1, 7, 16, 20, 35, _TRSV_BLOCK])
def test_single_block_cho_solve_equals_the_blocked_path_and_its_layout(n):
    rng = np.random.default_rng(300 + n)
    F = rng.normal(size=(n, n))
    L = np.linalg.cholesky(F @ F.T + n * np.eye(n))
    inv = _inverse_blocks(L)
    assert len(inv) == 1
    # one vector; a stack as _NormalFactor passes it (F-ordered); C-ordered
    for rhs in (rng.normal(size=n), rng.normal(size=(3, n)).T, rng.normal(size=(n, 3))):
        x = _cho_solve(L, inv, rhs)
        assert np.array_equal(x, _blocked_cho_solve(L, inv, rhs))
        # the layout np.empty_like(rhs) gives, which later products read
        assert x.strides == np.empty_like(rhs).strides
    stack = rng.normal(size=(2, n))
    y = _NormalFactor(F @ F.T + n * np.eye(n)).solve(stack)
    assert np.array_equal(y, _blocked_cho_solve(L, inv, stack.T).T) and y.flags.c_contiguous
