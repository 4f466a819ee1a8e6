"""Dense homogeneous self-dual interior-point method for small conic programs.

Solves   min c.x  s.t.  A x = b,  x in K,   and its dual
         max b.y  s.t.  A^T y + s = c,  s in K,
where K is a product of PSD cones (in scaled svec coordinates) and a
nonnegative orthant, through the homogeneous self-dual embedding
    A x = b tau,  A^T y + s = c tau,  b.y - c.x = kappa,  tau, kappa >= 0
(Ye, Todd & Mizuno 1994; in conic form Andersen, Roos & Terlaky 2003).
One run ends either with tau > 0, and (x, y, s) / tau is optimal, or with
kappa > 0 and b.y > 0, and y is a Farkas certificate that A x = b has no
solution in K.  A caller that needs some y with a property, not the
optimum, passes the property as a predicate, and the run ends at the
first tau-normalized iterate that has it.  Nesterov-Todd scaling with a
Mehrotra predictor-corrector step, aimed at problems with up to about a
thousand rows.  Each step works in the scaled coordinates u = W^{-T} dx,
v = W ds of CVXOPT's conelp (Vandenberghe 2010), where x and s both map
to one point lam that is diagonal on every PSD block.  The Schur
complement B B^T, B = A W^T, is formed cone block by cone block, as SDP
codes do (Fujisawa, Kojima & Nakata 1997): the orthant adds its diagonal
scaling over the nonzero pairs of its rows only, and a PSD block adds the
product of its own columns of B.  A caller that knows the structure of
the PSD block's rows may supply that block's term instead (psd_schur, as
Benson, Ye & Zhang 2000 do for low-rank constraint matrices); B is then
never formed, and B u = A (W^T u) and B^T y = W (A^T y) are taken through
A and the scaling.  B B^T is factored once and the diagonal blocks of its
Cholesky factor inverted once, so every Newton solve is matrix products
with B, B^T and that factor; step lengths are read off lam + alpha u and
lam + alpha v.  The linear algebra is numpy, dense except for the
orthant's pairs.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

__all__ = ["ConeSpec", "ConicResult", "MAX_ITERS", "smat", "solve_conic", "svec", "svec_dim"]

_SQRT2 = math.sqrt(2.0)
# Rows per diagonal block of the substitutions in _cho_solve.
_TRSV_BLOCK = 64
# Most rounds of iterative refinement of the corrector (_step).
_REFINE_STEPS = 2
# Fraction of the distance to the cone boundary each step covers.
_STEP_FRAC = 0.99
# Iterations after which a run ends "max_iters".
MAX_ITERS = 200


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
    return X.reshape(X.shape[:-2] + (X.shape[-2] * X.shape[-1],))


def svec(X: np.ndarray) -> np.ndarray:
    """Isometric vectorization of symmetric matrices (upper triangle).

    Batched over leading axes: (..., d, d) -> (..., d(d+1)/2).
    """
    X = np.asarray(X, dtype=float)
    upper, _, weight = _svec_index(X.shape[-1])
    out = np.take(_flat(X), upper, axis=-1)
    out *= weight
    return out


def smat(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec, batched over leading axes."""
    x = np.asarray(x, dtype=float)
    upper, lower, weight = _svec_index(d)
    vals = x / weight
    X = np.empty(x.shape[:-1] + (d * d,))
    X[..., upper] = vals
    X[..., lower] = vals
    return X.reshape(x.shape[:-1] + (d, d))


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


@lru_cache(maxsize=None)
def _svec_eye(d: int) -> np.ndarray:
    e = svec(np.eye(d))
    e.setflags(write=False)
    return e


def _identity_point(cone: ConeSpec) -> np.ndarray:
    x = np.zeros(cone.total_len)
    for tag, size, sl in cone.slices():
        x[sl] = _svec_eye(size) if tag == "s" else 1.0
    return x


class _Scaling:
    """Per-block NT scaling W of one iteration, and the scaled point lam.

    A PSD block scales by W v = svec(R^T smat(v) R), where R = Lx V sig^{-1/2}
    comes from the Cholesky factors of X and S and the SVD
    Ls^T Lx = U diag(sig) V^T; then W^{-T} x = W s = svec(diag(sig)), and
    W^T W s = x.  An orthant block scales by the vector w = sqrt(x / s) and
    has lam = sqrt(x s).  Each entry of blocks is (slice, size, R, sig) for
    a PSD block and (slice, None, w, lam) for the orthant.

    The step works in the scaled coordinates u = W^{-T} dx and v = W ds,
    where lam is diagonal on every PSD block: x + alpha dx stays in the
    cone exactly when lam + alpha u does (see max_step).  A PSD block of x
    or s that is not numerically positive definite raises LinAlgError.
    """

    def __init__(self, cone: ConeSpec, x: np.ndarray, s: np.ndarray):
        self.blocks = []
        self.lam = np.empty(cone.total_len)
        for tag, size, sl in cone.slices():
            if tag == "s":
                Lx, Ls = np.linalg.cholesky(smat(np.stack([x[sl], s[sl]]), size))
                _, sig, Vt = np.linalg.svd(Ls.T @ Lx)
                sig = np.clip(sig, 1.0e-150, None)
                self.blocks.append((sl, size, (Lx @ Vt.T) * sig ** -0.5, sig))
                self.lam[sl] = svec(np.diag(sig))
            else:
                lam = np.sqrt(x[sl] * s[sl])
                self.blocks.append((sl, None, np.sqrt(x[sl] / s[sl]), lam))
                self.lam[sl] = lam
        if not (np.isfinite(self.lam).all() and all(np.isfinite(b[2]).all() for b in self.blocks)):
            raise np.linalg.LinAlgError("non-finite NT scaling")

    def schur(self, A: np.ndarray, row_data: list):
        """The Schur complement S = A W^T W A^T, cone block by cone block
        (row_data as made by _row_data), and B = A W^T as an operator.

        Row i of B is W a_i.  On a PSD block that is svec(R^T A_i R), and
        the block adds B_p B_p^T over its own columns, unless the caller
        builds the block's term from its structure (row_data holds that
        callable): then B is never formed (_UnformedB).  On the orthant row
        i of B is a_i * w, and the block adds A_l diag(w^2) A_l^T, summed
        over the nonzero pairs of A_l only.  S is exactly symmetric.
        """
        nrows = A.shape[0]
        formed = not any(callable(data) for data in row_data)
        B = np.empty_like(A) if formed else None
        S = None
        for (sl, size, R, _), data in zip(self.blocks, row_data):
            if size is None:
                if formed:
                    np.multiply(A[:, sl], R, out=B[:, sl])
                flat, col, prod = data
                term = np.bincount(flat, prod * (R * R)[col], nrows * nrows)
                # (integer zeros when the block has no nonzero pair)
                term = term.astype(float, copy=False).reshape(nrows, nrows)
            elif callable(data):
                term = data(R)
            else:
                # R^T A_i R for every row i: T_i = A_i R as one GEMM, then
                # R^T T_i batched over the rows
                T = (data.reshape(-1, size) @ R).reshape(nrows, size, size)
                Bp = svec(np.matmul(R.T, T))
                B[:, sl] = Bp
                term = Bp @ Bp.T
            if S is None:
                S = term
            else:
                S += term
        return (_FormedB(B) if formed else _UnformedB(A, self)), S

    def scale_s(self, ds: np.ndarray) -> np.ndarray:
        """W ds: maps s-space directions (batched over leading axes) into
        scaled space."""
        out = np.empty_like(ds)
        for sl, size, R, _ in self.blocks:
            if size is None:
                out[..., sl] = ds[..., sl] * R
            else:
                out[..., sl] = svec(R.T @ smat(ds[..., sl], size) @ R)
        return out

    def unscale_to_x(self, u: np.ndarray) -> np.ndarray:
        """W^T u: maps scaled-space vectors (batched over leading axes) back
        to x-space directions."""
        out = np.empty_like(u)
        for sl, size, R, _ in self.blocks:
            if size is None:
                out[..., sl] = u[..., sl] * R
            else:
                out[..., sl] = svec(R @ smat(u[..., sl], size) @ R.T)
        return out

    def jordan_prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        for sl, size, _, _ in self.blocks:
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
        for sl, size, _, lam in self.blocks:
            if size is None:
                out[sl] = k[sl] / lam
            else:
                denom = 0.5 * (lam[:, None] + lam[None, :])
                out[sl] = svec(smat(k[sl], size) / denom)
        return out

    def max_step(self, u: np.ndarray, v: np.ndarray) -> float:
        """Largest alpha with lam + alpha u and lam + alpha v both in the
        closed cone, that is, with x + alpha dx and s + alpha ds in it.

        On a PSD block lam = diag(sig), so the bound is set by the least
        eigenvalue of sig^{-1/2} smat(u) sig^{-1/2}, the same for v; the two
        share one eigvalsh.
        """
        least = 0.0
        for sl, size, _, lam in self.blocks:
            if size is None:
                least = min(least, float(np.min(u[sl] / lam)), float(np.min(v[sl] / lam)))
            else:
                r = lam ** -0.5
                UV = smat(np.stack([u[sl], v[sl]]), size) * (r[:, None] * r[None, :])
                least = min(least, float(np.min(np.linalg.eigvalsh(UV)[:, 0])))
        return -1.0 / least if least < 0 else np.inf


class _FormedB:
    """B = A W^T as a matrix.  apply and adjoint act along the last axis of
    a vector or of a stack of them."""

    def __init__(self, B: np.ndarray):
        self.B = B

    def apply(self, u: np.ndarray) -> np.ndarray:
        """B u."""
        return u @ self.B.T

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """B^T y."""
        return y @ self.B


class _UnformedB:
    """B = A W^T without forming it: B u = A (W^T u) and B^T y = W (A^T y),
    along the last axis like _FormedB."""

    def __init__(self, A: np.ndarray, sc: _Scaling):
        self.A = A
        self.sc = sc

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.sc.unscale_to_x(u) @ self.A.T

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.sc.scale_s(y @ self.A)


class _NormalFactor:
    """Cholesky factor L of the Schur complement and the inverses of its
    diagonal blocks (_inverse_blocks), both computed once per step, so that
    every solve of the step is matrix products (_cho_solve).

    The factorization retries with an escalating diagonal regularization;
    after eight failures it raises LinAlgError, which ends the run.
    """

    def __init__(self, M: np.ndarray):
        n = M.shape[0]
        scale = max(float(np.trace(M)) / max(n, 1), 1.0e-300)
        reg = 0.0
        for _ in range(8):
            try:
                self.L = np.linalg.cholesky(M + reg * np.eye(n) if reg else M)
                break
            except np.linalg.LinAlgError:
                reg = scale * 1.0e-14 if reg == 0.0 else reg * 100.0
        else:
            raise np.linalg.LinAlgError("Schur complement not positive definite")
        self.inv = _inverse_blocks(self.L)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs, for one right-hand side or a stack of them (k, n)."""
        return _cho_solve(self.L, self.inv, rhs.T).T


def _inverse_blocks(L: np.ndarray) -> list:
    """The inverse of each diagonal block of L, taken _TRSV_BLOCK rows at
    a time (the last block may be shorter)."""
    blocks = [L[k:k + _TRSV_BLOCK, k:k + _TRSV_BLOCK] for k in range(0, L.shape[0], _TRSV_BLOCK)]
    return [np.linalg.solve(Lkk, np.eye(Lkk.shape[0])) for Lkk in blocks]


def _cho_solve(L: np.ndarray, inv: list, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs by blocked forward and back substitution, where
    inv holds the inverses of L's diagonal blocks (_inverse_blocks).

    Each block of unknowns is one product for its coupling to the blocks
    already solved and one with its diagonal block's inverse (or that
    inverse's transpose on the way back), so the work is O(n^2) and all of
    it is matrix products; a factor of up to _TRSV_BLOCK rows is a single
    block.  rhs may be (n,) or (n, k).
    """
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


def _orthant_pairs(A_l: np.ndarray):
    """The nonzero pairs of an orthant block A_l (nrows, p): every (i, j, k)
    with A_l[i, k] and A_l[j, k] both nonzero, sum_k nnz_k^2 of them, in
    order of k.  Returns the flat position i * nrows + j, the column k and
    the product A_l[i, k] A_l[j, k], so that A_l diag(d) A_l^T is
    bincount(flat, prod * d[col]) reshaped; the pairs of (i, j) and (j, i)
    meet the same products in the same order, so the sum is exactly
    symmetric.
    """
    nrows = A_l.shape[0]
    # the nonzero entries in order of column, and how many share each one's
    col, row = np.nonzero(A_l.T)
    nnz = np.bincount(col, minlength=A_l.shape[1])[col]
    # entry e pairs with every entry of its column, the nnz[e] entries from
    # the column's first one on
    first = np.repeat(np.arange(col.size), nnz)
    offset = np.arange(first.size) - np.repeat(np.cumsum(nnz) - nnz, nnz)
    second = np.repeat(np.searchsorted(col, col), nnz) + offset
    i, j, k = row[first], row[second], col[first]
    return i * nrows + j, k, A_l[i, k] * A_l[j, k]


def _row_data(A: np.ndarray, cone: ConeSpec, psd_schur=None) -> list:
    """What _Scaling.schur needs of the rows of A, per cone block: on a PSD
    block psd_schur if given, else the rows restricted to it as
    (nrows, d, d); on an orthant block its nonzero pairs (_orthant_pairs)."""
    if psd_schur is not None and [tag for tag, _ in cone.blocks].count("s") != 1:
        raise ValueError("psd_schur needs a cone with exactly one PSD block")
    return [
        (psd_schur if psd_schur is not None else smat(A[:, sl], size))
        if tag == "s" else _orthant_pairs(A[:, sl])
        for tag, size, sl in cone.slices()
    ]


def _scaled_newton(B, normal, r1, wr2, q):
    """Solve A dx = r1, A^T dy + ds = r2, dx + W^T W ds = W^T q in the scaled
    coordinates u = W^{-T} dx, v = W ds, where they read B u = r1,
    B^T dy + v = W r2 and u + v = q; returns (u, dy), and v = q - u.
    B is the operator of _Scaling.schur and wr2 is W r2.  Batched over a
    leading axis of r1, wr2 and q.
    """
    dy = normal.solve(r1 + B.apply(wr2 - q))
    return q - wr2 + B.adjoint(dy), dy


def _step(A, b, c, row_data, cone, point, rp, rd, rg):
    """Mehrotra predictor-corrector direction of the embedding and its step.

    B = A W^T, as a matrix or an operator, and the Schur complement B B^T
    are formed (_Scaling.schur), and B B^T is factored once.  The direction per unit of d tau,
    B u = b, B^T dy + v = W c, u + v = 0, is solved together with the
    predictor and shared with the corrector; the last row of the
    embedding and kappa d tau + tau d kappa = rk then fix d tau and d kappa.
    The whole step stays in the scaled coordinates u, v: the predictor's
    u and v give its step length, gap and the second-order term, and only
    the corrector's u is refined and mapped back to dx = W^T u.  Returns
    (dx, dy, ds, d tau, d kappa, step length).  Raises LinAlgError when the
    scaling or a step length cannot be formed.
    """
    x, y, s, tau, kappa = point
    sc = _Scaling(cone, x, s)
    lam = sc.lam
    B, S = sc.schur(A, row_data)
    normal = _NormalFactor(S)
    w_crd = sc.scale_s(np.stack([c, rd]))
    wc, wrd = w_crd
    # the direction per unit of d tau (q = 0) and the predictor (q = -lam)
    (u_t, u), (dy_t, dy) = _scaled_newton(
        B, normal, np.stack([b, rp]), w_crd, np.stack([np.zeros_like(lam), -lam])
    )
    # b.dy_t - c.dx_t = ||u_t||^2 since v_t = -u_t
    denom = kappa / tau + u_t @ u_t

    def with_tau(eta, u, dy, rk):
        """Adds to the solve (u, dy) of the linear residuals eta (rp, rd) the
        d tau that meets eta rg and tau kappa + d = rk; returns
        (u, dy, d tau, d kappa)."""
        dtau = (eta * rg + rk / tau - b @ dy + wc @ u) / denom
        dkappa = (rk - kappa * dtau) / tau
        return u + dtau * u_t, dy + dtau * dy_t, dtau, dkappa

    def max_step(u, v, dtau, dkappa):
        alpha = sc.max_step(u, v)
        for v, dv in ((tau, dtau), (kappa, dkappa)):
            if dv < 0:
                alpha = min(alpha, -v / dv)
        return alpha

    # predictor (affine scaling) direction: q = -lam, that is W^T q = -x
    u, _, dtau, dkappa = with_tau(1.0, u, dy, -tau * kappa)
    v = -lam - u
    a_aff = min(1.0, max_step(u, v, dtau, dkappa))
    gap = float(x @ s) + tau * kappa
    # (x + a dx).(s + a ds) = (lam + a u).(lam + a v)
    gap_aff = float((lam + a_aff * u) @ (lam + a_aff * v))
    gap_aff += (tau + a_aff * dtau) * (kappa + a_aff * dkappa)
    ratio = min(gap_aff / gap, 1.0) if gap > 0 else 0.0
    sigma = min(1.0, max(ratio ** 3, 1.0e-8))
    mu = gap / (cone.barrier_degree + 1)

    # corrector: target sigma*mu on the central path minus the
    # second-order term from the affine step; the linear residuals shrink
    # at the same rate 1 - sigma
    eta = 1.0 - sigma
    q = sc.jordan_solve_lam(sigma * mu * _identity_point(cone) - lam * lam - sc.jordan_prod(u, v))
    u, dy, dtau, dkappa = with_tau(
        eta, *_scaled_newton(B, normal, eta * rp, eta * wrd, q),
        sigma * mu - tau * kappa - dtau * dkappa,
    )
    # Near the optimum B B^T is so ill-conditioned that B u drifts from r1;
    # up to _REFINE_STEPS rounds, each kept only while it shrinks the
    # residual, win the lost accuracy back with the same factor.  Every
    # round keeps u + v and B^T dy + v as they are.
    r1 = eta * rp + dtau * b
    r = r1 - B.apply(u)
    rn = r @ r
    for _ in range(_REFINE_STEPS):
        ddy = normal.solve(r)
        u_new = u + B.adjoint(ddy)
        r_new = r1 - B.apply(u_new)
        rn_new = r_new @ r_new
        if not rn_new < rn:
            break
        u, dy, r, rn = u_new, dy + ddy, r_new, rn_new
    alpha = min(1.0, _STEP_FRAC * max_step(u, q - u, dtau, dkappa))
    ds = eta * rd + dtau * c - A.T @ dy
    return sc.unscale_to_x(u), dy, ds, dtau, dkappa, alpha


def solve_conic(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    cone: ConeSpec,
    tol: float = 1.0e-10,
    accept: Optional[Callable[[np.ndarray], bool]] = None,
    psd_schur: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ConicResult:
    """Run the predictor-corrector loop on the embedding, from x = s = e,
    y = 0, tau = kappa = 1.  It ends in one of five ways:

    - "optimal": the tau-normalized iterate has rp_rel, rd_rel and gap_rel
      all within tol; x, y and s are divided by tau.
    - "infeasible": kappa dominates tau and y is a Farkas certificate,
      b.y > 0 with ||A^T y + s|| <= tol b.y, so -A^T y lies within tol of
      K; x, y and s are divided by b.y.
    - "accepted": accept(y / tau) holds, tested on every iterate that is
      neither optimal nor infeasible; x, y and s are divided by tau.
    - "stalled": an iteration failed to improve the progress score, the
      largest of the embedding's own residuals ||tau b - A x|| / (1 + ||b||)
      and ||tau c - A^T y - s|| / (1 + ||c||) and of its complementarity
      (x.s + tau kappa) / (nu + 1).  In exact arithmetic all three shrink
      by the same factor every step, whichever certificate the run heads
      for, so a failure means rounding has taken over; the previous
      iterate is returned, divided by tau.  A breakdown of the scaling or
      a step length, or a non-finite iterate, is such a failure.  (The
      tau-normalized measures are no score: a sound step that lowers tau
      can raise them.)
    - "max_iters": the last of MAX_ITERS iterates, divided by tau.

    rp_rel, rd_rel and gap_rel are those of the returned iterate, normalized
    by tau.  Floating-point warnings are suppressed throughout.

    psd_schur, for a cone with one PSD block, maps that block's scaling
    factor R (G = R R^T, see _Scaling) to the block's Schur term
    A_p W_p^T W_p A_p^T, built by the caller from the structure of A's rows;
    B = A W^T is then never formed.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    nrows = A.shape[0]
    nu = cone.barrier_degree

    x, s, y = _identity_point(cone), _identity_point(cone), np.zeros(nrows)
    if nrows == 0:
        return ConicResult("optimal", x, y, s, 0, 0.0, 0.0, 0.0, float(x @ s) / nu, float(c @ x))
    bnorm = 1.0 + float(np.linalg.norm(b))
    cnorm = 1.0 + float(np.linalg.norm(c))
    row_data = _row_data(A, cone, psd_schur)
    tau = kappa = 1.0
    status, it, prev, prev_score = "max_iters", 0, None, np.inf
    history = []

    with np.errstate(all="ignore"):
        for it in range(1, MAX_ITERS + 1):
            aty = A.T @ y
            rp = tau * b - A @ x
            rd = tau * c - aty - s
            by = float(b @ y)
            rg = kappa - by + float(c @ x)
            rp_n = float(np.linalg.norm(rp)) / bnorm
            rd_n = float(np.linalg.norm(rd)) / cnorm
            rp_rel, rd_rel = rp_n / tau, rd_n / tau
            gap_rel = float(x @ s) / (tau * (tau + abs(float(c @ x)) + abs(by)))
            farkas = float(np.linalg.norm(aty + s)) / by if by > 0 else np.inf
            history.append((rp_rel, rd_rel, gap_rel))
            point = (x, y, s, tau, kappa, rp_rel, rd_rel, gap_rel)

            if rp_rel <= tol and rd_rel <= tol and gap_rel <= tol:
                status = "optimal"
                break
            if kappa > tau and farkas <= tol:
                status = "infeasible"
                break
            if accept is not None and accept(y / tau):
                status = "accepted"
                break
            score = max(rp_n, rd_n, (float(x @ s) + tau * kappa) / (nu + 1))
            if not score < prev_score:
                status, point = "stalled", prev or point
                break
            if it == MAX_ITERS:
                break
            prev, prev_score = point, score

            try:
                step = _step(A, b, c, row_data, cone, point[:5], rp, rd, rg)
            except np.linalg.LinAlgError:
                status = "stalled"
                break
            dx, dy, ds, dtau, dkappa, alpha = step
            x, y, s = x + alpha * dx, y + alpha * dy, s + alpha * ds
            tau, kappa = tau + alpha * dtau, kappa + alpha * dkappa

        x, y, s, tau, kappa, rp_rel, rd_rel, gap_rel = point
        scale = float(b @ y) if status == "infeasible" else tau
        x, y, s = x / scale, y / scale, s / scale

    return ConicResult(
        status, x, y, s, it, rp_rel, rd_rel, gap_rel, float(x @ s) / nu, float(c @ x), history
    )
