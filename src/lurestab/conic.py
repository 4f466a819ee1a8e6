"""Dense primal-dual interior-point method for small conic programs.

Solves   min c.x  s.t.  A x = b,  x in K,
where K is a product of PSD cones (in scaled svec coordinates) and a
nonnegative orthant.  Nesterov-Todd scaling with a Mehrotra
predictor-corrector step, aimed at problems with up to about a thousand
rows.  The Schur complement A W^T W A^T is formed block by block, as SDPA
and SDPT3 do, and factored once per iteration; all linear algebra is dense
numpy.  Infeasible start: the iterates satisfy the cone constraints
strictly at all times while the equality residuals are driven to zero.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = ["ConeSpec", "ConicResult", "IpmSettings", "smat", "solve_conic", "svec", "svec_dim"]

_SQRT2 = math.sqrt(2.0)
# Rows per diagonal block of the substitutions in _cho_solve.
_TRSV_BLOCK = 64
# Most rounds of iterative refinement per Newton solve (_newton).
_REFINE_STEPS = 2
# Fraction of the distance to the cone boundary each step covers.
_STEP_FRAC = 0.99
# The loop ends as "stalled" after _STALL_LIMIT consecutive iterations
# whose primal and dual steps both stay below _MIN_STEP.
_MIN_STEP = 1.0e-8
_STALL_LIMIT = 4


def svec_dim(d: int) -> int:
    return d * (d + 1) // 2


@lru_cache(maxsize=None)
def _svec_index(d: int):
    """Flat positions of the upper triangle of a d x d matrix, of its
    transpose, and the svec weights (1 on the diagonal, sqrt 2 off it)."""
    rows, cols = np.triu_indices(d)
    upper = rows * d + cols
    lower = cols * d + rows
    weight = np.where(rows == cols, 1.0, _SQRT2)
    for arr in (upper, lower, weight):
        arr.setflags(write=False)
    return upper, lower, weight


def _flat(X: np.ndarray) -> np.ndarray:
    return X.reshape(X.shape[:-2] + (-1,))


def svec(X: np.ndarray) -> np.ndarray:
    """Isometric vectorization of symmetric matrices (upper triangle).

    Batched over leading axes: (..., d, d) -> (..., d(d+1)/2).
    """
    X = np.asarray(X, dtype=float)
    upper, _, weight = _svec_index(X.shape[-1])
    return np.take(_flat(X), upper, axis=-1) * weight


def smat(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec, batched over leading axes."""
    x = np.asarray(x, dtype=float)
    upper, lower, weight = _svec_index(d)
    vals = x / weight
    X = np.empty(x.shape[:-1] + (d * d,))
    X[..., upper] = vals
    X[..., lower] = vals
    return X.reshape(x.shape[:-1] + (d, d))


def _svec_sym(X: np.ndarray) -> np.ndarray:
    """svec of the symmetric part of (..., d, d) matrices."""
    upper, lower, weight = _svec_index(X.shape[-1])
    F = _flat(X)
    return (np.take(F, upper, axis=-1) + np.take(F, lower, axis=-1)) * (0.5 * weight)


@dataclass(frozen=True)
class ConeSpec:
    """Ordered cone blocks: ("s", d) for a d x d PSD block, ("l", p) orthant."""

    blocks: tuple

    def __post_init__(self):
        for tag, size in self.blocks:
            if tag not in ("s", "l") or size < 1:
                raise ValueError(f"bad cone block ({tag!r}, {size})")

    @property
    def total_len(self) -> int:
        return sum(svec_dim(s) if t == "s" else s for t, s in self.blocks)

    @property
    def barrier_degree(self) -> int:
        return sum(s for _, s in self.blocks)

    def slices(self):
        out, at = [], 0
        for tag, size in self.blocks:
            ln = svec_dim(size) if tag == "s" else size
            out.append((tag, size, slice(at, at + ln)))
            at += ln
        return out


@dataclass(frozen=True)
class IpmSettings:
    max_iters: int = 200
    tol_feas: float = 1.0e-10
    tol_gap: float = 1.0e-10


@dataclass
class ConicResult:
    status: str
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    iterations: int
    rp_rel: float
    rd_rel: float
    gap_rel: float
    mu: float
    obj: float
    history: list = field(default_factory=list)


def _identity_point(cone: ConeSpec) -> np.ndarray:
    x = np.zeros(cone.total_len)
    for tag, size, sl in cone.slices():
        if tag == "s":
            x[sl] = svec(np.eye(size))
        else:
            x[sl] = 1.0
    return x


def _chol_psd(X: np.ndarray) -> np.ndarray:
    """Cholesky with an eigenvalue floor fallback for nearly singular input."""
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        lam, Q = np.linalg.eigh(0.5 * (X + X.T))
        floor = max(np.max(lam), 1.0) * 1.0e-14
        lam = np.clip(lam, floor, None)
        return np.linalg.cholesky((Q * lam) @ Q.T)


class _Scaling:
    """Per-block NT scaling W of one iteration.

    A PSD block scales by W u = svec(R^T smat(u) R) with G = R R^T, so that
    W^T W u = svec(G smat(u) G); an orthant block scales by the vector w.
    Each entry of blocks is (slice, size, R, R^{-1}, G, sig) for a PSD
    block and (slice, None, w, None, w^2, lam) for the orthant.  lam is the
    scaled point W^{-T} x = W s.  x_steps and s_steps carry, per block,
    (slice, size, L^{-1}) with L the Cholesky factor of the PSD block of x
    or s (size and L^{-1} None on the orthant), for _max_step.
    """

    def __init__(self, cone: ConeSpec, x: np.ndarray, s: np.ndarray):
        self.blocks = []
        self.x_steps = []
        self.s_steps = []
        self.lam = np.empty(cone.total_len)
        for tag, size, sl in cone.slices():
            if tag == "s":
                Lx = _chol_psd(smat(x[sl], size))
                Ls = _chol_psd(smat(s[sl], size))
                self.x_steps.append((sl, size, np.linalg.inv(Lx)))
                self.s_steps.append((sl, size, np.linalg.inv(Ls)))
                U, sig, Vt = np.linalg.svd(Ls.T @ Lx)
                sig = np.clip(sig, 1.0e-150, None)
                root = sig ** -0.5
                R = (Lx @ Vt.T) * root
                Rinv = root[:, None] * (U.T @ Ls.T)
                self.blocks.append((sl, size, R, Rinv, R @ R.T, sig))
                self.lam[sl] = svec(np.diag(sig))
            else:
                self.x_steps.append((sl, None, None))
                self.s_steps.append((sl, None, None))
                w = np.sqrt(x[sl] / s[sl])
                lam = np.sqrt(x[sl] * s[sl])
                self.blocks.append((sl, None, w, None, w * w, lam))
                self.lam[sl] = lam
        finite = np.isfinite(self.lam).all() and all(np.isfinite(b[4]).all() for b in self.blocks)
        if not finite:
            raise np.linalg.LinAlgError("non-finite NT scaling")

    def wsq_rows(self, A: np.ndarray, row_mats: list) -> np.ndarray:
        """A W^T W, block by block: row i becomes W^T W a_i.

        row_mats holds, per PSD block, smat of that block of every row of A
        (see _row_mats); an orthant block is a diagonal scaling.
        """
        out = np.empty_like(A)
        nrows = A.shape[0]
        for (sl, size, _, _, G, _), mats in zip(self.blocks, row_mats):
            if size is None:
                out[:, sl] = A[:, sl] * G
                continue
            # G A_i G for every row i as two GEMMs: T_i = A_i G, then
            # G A_i G = T_i^T G because A_i and G are symmetric
            T = (mats.reshape(-1, size) @ G).reshape(nrows, size, size)
            T = (np.swapaxes(T, 1, 2).reshape(-1, size) @ G).reshape(nrows, size, size)
            out[:, sl] = _svec_sym(T)
        return out

    def apply_wsq(self, v: np.ndarray) -> np.ndarray:
        """W^T W v, block by block."""
        out = np.empty_like(v)
        for sl, size, _, _, G, _ in self.blocks:
            if size is None:
                out[sl] = v[sl] * G
            else:
                out[sl] = _svec_sym(G @ smat(v[sl], size) @ G)
        return out

    def scale_x(self, dx: np.ndarray) -> np.ndarray:
        """W^{-T} dx: maps an x-space direction into scaled space."""
        out = np.empty_like(dx)
        for sl, size, w, Rinv, _, _ in self.blocks:
            if size is None:
                out[sl] = dx[sl] / w
            else:
                out[sl] = svec(Rinv @ smat(dx[sl], size) @ Rinv.T)
        return out

    def scale_s(self, ds: np.ndarray) -> np.ndarray:
        """W ds: maps an s-space direction into scaled space."""
        out = np.empty_like(ds)
        for sl, size, R, _, _, _ in self.blocks:
            if size is None:
                out[sl] = ds[sl] * R
            else:
                out[sl] = svec(R.T @ smat(ds[sl], size) @ R)
        return out

    def unscale_to_x(self, u: np.ndarray) -> np.ndarray:
        """W^T u: maps a scaled-space vector back to an x-space direction."""
        out = np.empty_like(u)
        for sl, size, R, _, _, _ in self.blocks:
            if size is None:
                out[sl] = u[sl] * R
            else:
                out[sl] = svec(R @ smat(u[sl], size) @ R.T)
        return out

    def jordan_prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        for sl, size, _, _, _, _ in self.blocks:
            if size is None:
                out[sl] = u[sl] * v[sl]
            else:
                U = smat(u[sl], size)
                V = smat(v[sl], size)
                out[sl] = svec(0.5 * (U @ V + V @ U))
        return out

    def jordan_solve_lam(self, k: np.ndarray) -> np.ndarray:
        """Solve L(lam) z = k where lam is the scaling's spectral point."""
        out = np.empty_like(k)
        for sl, size, _, _, _, lam in self.blocks:
            if size is None:
                out[sl] = k[sl] / lam
            else:
                denom = 0.5 * (lam[:, None] + lam[None, :])
                out[sl] = svec(smat(k[sl], size) / denom)
        return out


def _max_step(steps: list, x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha dx still in the (closed) cone.

    steps is _Scaling.x_steps or s_steps, whichever was factored from x.
    """
    alpha = np.inf
    for sl, size, Linv in steps:
        if size is not None:
            DX = smat(dx[sl], size)
            Mfr = Linv @ DX @ Linv.T
            w = np.linalg.eigvalsh(0.5 * (Mfr + Mfr.T))
            wmin = w[0]
            if wmin < 0:
                alpha = min(alpha, -1.0 / wmin)
        else:
            neg = dx[sl] < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-x[sl][neg] / dx[sl][neg])))
    return alpha


class _NormalFactor:
    """Cholesky factor of the Schur complement, computed once per step.

    The factorization retries with an escalating diagonal regularization;
    after eight failures every solve falls back to least squares.
    """

    def __init__(self, M: np.ndarray):
        self.M = M
        self.L = None
        n = M.shape[0]
        scale = max(float(np.trace(M)) / max(n, 1), 1.0e-300)
        reg = 0.0
        for _ in range(8):
            try:
                self.L = np.linalg.cholesky(M + reg * np.eye(n) if reg else M)
                return
            except np.linalg.LinAlgError:
                reg = scale * 1.0e-14 if reg == 0.0 else reg * 100.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.L is None:
            return np.linalg.lstsq(self.M, rhs, rcond=None)[0]
        return _cho_solve(self.L, rhs)


def _cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs by blocked forward and back substitution.

    Each diagonal block is solved directly; the coupling to the blocks
    already solved is one matrix-vector product, so the work is O(n^2).
    """
    n = L.shape[0]
    starts = range(0, n, _TRSV_BLOCK)
    z = np.empty(n)
    for k in starts:
        e = min(k + _TRSV_BLOCK, n)
        z[k:e] = np.linalg.solve(L[k:e, k:e], rhs[k:e] - L[k:e, :k] @ z[:k])
    x = np.empty(n)
    for k in reversed(starts):
        e = min(k + _TRSV_BLOCK, n)
        x[k:e] = np.linalg.solve(L[k:e, k:e].T, z[k:e] - L[e:, k:e].T @ x[e:])
    return x


def _row_mats(A: np.ndarray, cone: ConeSpec) -> list:
    """Per PSD block, the rows of A restricted to it as (nrows, d, d)."""
    return [smat(A[:, sl], size) if tag == "s" else None for tag, size, sl in cone.slices()]


def _newton(A, sc, normal, rp, rd, wrd, wdc):
    """Solve the Newton system for one right-hand side.

    A dx = rp, A^T dy + ds = rd, dx + W^T W ds = wdc, through the Schur
    complement A W^T W A^T.  Near the optimum that matrix is so
    ill-conditioned that A dx drifts from rp; up to _REFINE_STEPS rounds of
    iterative refinement on the primal residual, each kept only while it
    shrinks, win the lost accuracy back with the same factor.
    """
    dy = normal.solve(rp - A @ wdc + A @ wrd)
    dx = wdc - wrd + sc.apply_wsq(A.T @ dy)
    r = rp - A @ dx
    rn = np.linalg.norm(r)
    for _ in range(_REFINE_STEPS):
        ddy = normal.solve(r)
        dx_new = dx + sc.apply_wsq(A.T @ ddy)
        r_new = rp - A @ dx_new
        rn_new = np.linalg.norm(r_new)
        if not rn_new < rn:
            break
        dx, dy, r, rn = dx_new, dy + ddy, r_new, rn_new
    return dx, dy, rd - A.T @ dy


def _step(A, row_mats, cone, x, s, rp, rd, mu, gap):
    """Mehrotra predictor-corrector direction and step lengths.

    A W^T W A^T is formed block by block and factored once for both
    directions.  Raises LinAlgError when the scaling or a step length
    cannot be formed.
    """
    sc = _Scaling(cone, x, s)
    M = sc.wsq_rows(A, row_mats) @ A.T
    normal = _NormalFactor(0.5 * (M + M.T))
    wrd = sc.apply_wsq(rd)

    # predictor (affine scaling) direction
    dx_aff, _, ds_aff = _newton(A, sc, normal, rp, rd, wrd, -x)

    a_x = min(1.0, _max_step(sc.x_steps, x, dx_aff))
    a_s = min(1.0, _max_step(sc.s_steps, s, ds_aff))
    a_aff = min(a_x, a_s)
    gap_aff = float((x + a_aff * dx_aff) @ (s + a_aff * ds_aff))
    ratio = min(gap_aff / gap, 1.0) if gap > 0 else 0.0
    sigma = min(1.0, max(ratio ** 3, 1.0e-8))

    # corrector: target sigma*mu on the central path minus the
    # second-order term from the affine step
    eta = sc.jordan_prod(sc.scale_x(dx_aff), sc.scale_s(ds_aff))
    target = -sc.jordan_prod(sc.lam, sc.lam) - eta
    for tag, size, sl in cone.slices():
        if tag == "s":
            target[sl] += sigma * mu * svec(np.eye(size))
        else:
            target[sl] += sigma * mu
    wdc = sc.unscale_to_x(sc.jordan_solve_lam(target))
    dx, dy, ds = _newton(A, sc, normal, rp, rd, wrd, wdc)

    a_p = min(1.0, _STEP_FRAC * _max_step(sc.x_steps, x, dx))
    a_d = min(1.0, _STEP_FRAC * _max_step(sc.s_steps, s, ds))
    return dx, dy, ds, a_p, a_d


def solve_conic(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    cone: ConeSpec,
    settings: Optional[IpmSettings] = None,
) -> ConicResult:
    """Run the predictor-corrector loop; returns the best iterate seen.

    The loop ends as "stalled" when the steps stay below _MIN_STEP, and also
    when the scaling or a step length cannot be computed or an iterate turns
    non-finite; floating-point warnings are suppressed throughout.
    """
    st = settings or IpmSettings()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    nrows = A.shape[0]
    nu = cone.barrier_degree

    x = _identity_point(cone)
    s = _identity_point(cone)
    y = np.zeros(nrows)

    if nrows == 0:
        return ConicResult(
            status="optimal", x=x, y=y, s=s, iterations=0, rp_rel=0.0, rd_rel=0.0,
            gap_rel=0.0, mu=float(x @ s) / nu, obj=float(c @ x),
        )

    bnorm = 1.0 + float(np.linalg.norm(b))
    cnorm = 1.0 + float(np.linalg.norm(c))

    row_mats = _row_mats(A, cone)
    best = None
    best_score = np.inf
    stalls = 0
    status = "max_iters"
    it = 0
    history = []

    with np.errstate(all="ignore"):
        for it in range(1, st.max_iters + 1):
            rp = b - A @ x
            rd = c - A.T @ y - s
            gap = float(x @ s)
            mu = gap / nu
            rp_rel = float(np.linalg.norm(rp)) / bnorm
            rd_rel = float(np.linalg.norm(rd)) / cnorm
            gap_rel = gap / (1.0 + abs(float(c @ x)) + abs(float(b @ y)))
            history.append((rp_rel, rd_rel, gap_rel))

            score = max(rp_rel, rd_rel, gap_rel)
            if score < best_score:
                best_score = score
                best = (x.copy(), y.copy(), s.copy(), rp_rel, rd_rel, gap_rel, mu)

            if rp_rel <= st.tol_feas and rd_rel <= st.tol_feas and gap_rel <= st.tol_gap:
                status = "optimal"
                break

            try:
                dx, dy, ds, a_p, a_d = _step(A, row_mats, cone, x, s, rp, rd, mu, gap)
            except np.linalg.LinAlgError:
                status = "stalled"
                break

            if max(a_p, a_d) < _MIN_STEP:
                stalls += 1
                if stalls >= _STALL_LIMIT:
                    status = "stalled"
                    break
            else:
                stalls = 0

            x_new = x + a_p * dx
            y_new = y + a_d * dy
            s_new = s + a_d * ds
            if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(y_new))
                    and np.all(np.isfinite(s_new))):
                status = "stalled"
                break
            x, y, s = x_new, y_new, s_new

        else:
            it = st.max_iters

        if status != "optimal" and best is not None:
            x, y, s, rp_rel, rd_rel, gap_rel, mu = best
        else:
            rp = b - A @ x
            rd = c - A.T @ y - s
            gap = float(x @ s)
            mu = gap / nu
            rp_rel = float(np.linalg.norm(rp)) / bnorm
            rd_rel = float(np.linalg.norm(rd)) / cnorm
            gap_rel = gap / (1.0 + abs(float(c @ x)) + abs(float(b @ y)))

    return ConicResult(
        status=status,
        x=x,
        y=y,
        s=s,
        iterations=it,
        rp_rel=rp_rel,
        rd_rel=rd_rel,
        gap_rel=gap_rel,
        mu=mu,
        obj=float(c @ x),
        history=history,
    )
