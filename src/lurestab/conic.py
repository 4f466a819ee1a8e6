"""Dense homogeneous self-dual interior-point method for small conic programs.

Solves   min c.x  s.t.  A x = b,  x in K,   and its dual
         max b.y  s.t.  A^T y + s = c,  s in K,
where K is one d x d PSD cone, in scaled svec coordinates, followed by a
nonnegative orthant of p entries (ConeSpec), the one cone the engine's
form has, through the homogeneous self-dual embedding
    A x = b tau,  A^T y + s = c tau,  b.y - c.x = kappa,  tau, kappa >= 0
(Ye, Todd & Mizuno 1994; in conic form Andersen, Roos & Terlaky 2003).
One run ends either with tau > 0, and (x, y, s) / tau is optimal, or with
kappa > 0 and b.y > 0, and y is a Farkas certificate that A x = b has no
solution in K; both are judged at one fixed tolerance, IPM_TOL.  A caller
that needs some y with a property, not the optimum, passes the property
as a predicate, and the run ends at the first tau-normalized iterate that
has it.  Nesterov-Todd scaling with a
Mehrotra predictor-corrector step, aimed at problems with up to about a
thousand rows.  Each step works in the scaled coordinates u = W^{-T} dx,
v = W ds of CVXOPT's conelp (Vandenberghe 2010), where x and s both map
to one point lam that is diagonal on the PSD block.  The Schur complement
B B^T, B = A W^T, is formed one part of the cone at a time, as SDP codes
do (Fujisawa, Kojima & Nakata 1997), into one buffer per run that every
step writes once: the PSD block writes the product of its columns of B,
and the orthant adds its diagonal scaling over the nonzero pairs of its
rows only, in place.  The factor reads only the lower triangle, which
defines the matrix.  A caller that knows the structure of the PSD block's
rows may supply them as an object instead (psd_rows, as Benson, Ye &
Zhang 2000 do for low-rank constraint matrices), which writes the block's
term, its lower triangle only, and gives its products with A: B is then
never formed, and B u = A (W^T u), B^T y = W (A^T y) and the loop's A x
and A^T y go through that block's structure and the orthant's nonzeros;
A is then only the orthant's columns.  B B^T is factored once and the diagonal blocks of its
Cholesky factor inverted once, so every Newton solve is matrix products
with B, B^T and that factor; up to _TRSV_BLOCK rows the factor is one
block, and a solve is two products with its inverse.  From
_BLOCKED_MIN_ROWS rows on the factor is a left-looking blocked Cholesky
whose updates are matrix products, each panel refined once (Golub & Van
Loan, Matrix Computations, 4.2); below it, numpy's Cholesky.  Step
lengths are read off lam + alpha u and lam + alpha v.  smat is one take
through index maps made once per size d (_svec_index).  The per-step
kernels are written on those maps, but each floating-point operation has
the operands, the order and the memory layout of the plain smat/svec
round trip, since BLAS sums differently by layout; tests/test_conic.py
compares the two bit for bit.  The linear algebra is numpy, dense except
for the orthant's nonzeros.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = ["ConeSpec", "ConicResult", "IPM_TOL", "MAX_ITERS", "smat", "solve_conic", "svec",
           "svec_dim"]

_SQRT2 = math.sqrt(2.0)
# Rows per diagonal block of the substitutions in _cho_solve.
_TRSV_BLOCK = 64
# Fewest rows of a Schur complement factored blocked (_blocked_cholesky);
# the measured crossover with numpy's Cholesky.
_BLOCKED_MIN_ROWS = 3 * _TRSV_BLOCK
# Most rounds of iterative refinement of the corrector (_step).
_REFINE_STEPS = 2
# Fraction of the distance to the cone boundary each step covers.
_STEP_FRAC = 0.99
# Iterations after which a run ends "max_iters".
MAX_ITERS = 200
# Stopping tolerance of every run: the relative residuals and gap of an
# optimum, and the cone distance of a Farkas certificate.  Tight, because
# the dual's witness data is read straight off the point a run returns.
IPM_TOL = 1.0e-11


def svec_dim(d: int) -> int:
    return d * (d + 1) // 2


class _SvecMaps(NamedTuple):
    """The index maps between a d x d symmetric matrix, flattened by rows,
    and its svec."""

    upper: np.ndarray  # the flat position of every svec entry
    weight: np.ndarray  # every svec entry's weight: 1 on the diagonal, sqrt 2 off it
    full: np.ndarray  # the svec position of every flat entry
    full_weight: np.ndarray  # weight[full]
    diag: np.ndarray  # the svec positions of the diagonal


@lru_cache(maxsize=None)
def _svec_index(d: int) -> _SvecMaps:
    """The maps for size d, made once, on first use."""
    rows, cols = np.triu_indices(d)
    upper = rows * d + cols
    weight = np.where(rows == cols, 1.0, _SQRT2)
    full = np.empty(d * d, dtype=np.intp)
    full[upper] = full[cols * d + rows] = np.arange(upper.size)
    maps = _SvecMaps(upper, weight, full, weight[full], full[:: d + 1].copy())
    for arr in maps:
        arr.setflags(write=False)
    return maps


def _flat(X: np.ndarray) -> np.ndarray:
    return X.reshape(X.shape[:-2] + (X.shape[-2] * X.shape[-1],))


def svec(X: np.ndarray) -> np.ndarray:
    """Isometric vectorization of symmetric matrices (upper triangle).

    Batched over leading axes: (..., d, d) -> (..., d(d+1)/2).
    """
    X = np.asarray(X, dtype=float)
    maps = _svec_index(X.shape[-1])
    out = _flat(X).take(maps.upper, axis=-1)
    out *= maps.weight
    return out


def smat(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec, batched over leading axes: one take through the
    svec position of every entry."""
    maps = _svec_index(d)
    X = np.asarray(x, dtype=float).take(maps.full, axis=-1)
    X /= maps.full_weight
    return X.reshape(X.shape[:-1] + (d, d))


@dataclass(frozen=True)
class ConeSpec:
    """The one cone of the form: a d x d PSD block in svec coordinates, then
    a nonnegative orthant of p entries.  Its layout is computed once per
    instance, since every step reads it."""

    d: int
    p: int

    def __post_init__(self):
        if self.d < 1 or self.p < 0:
            raise ValueError(f"bad cone: PSD block of size {self.d}, orthant of {self.p}")

    @cached_property
    def psd(self) -> slice:
        return slice(0, svec_dim(self.d))

    @cached_property
    def orthant(self) -> slice:
        return slice(svec_dim(self.d), self.total_len)

    @cached_property
    def total_len(self) -> int:
        return svec_dim(self.d) + self.p

    @cached_property
    def barrier_degree(self) -> int:
        return self.d + self.p


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
    history: list = field(default_factory=list)


@lru_cache(maxsize=None)
def _identity_point(cone: ConeSpec) -> np.ndarray:
    """e: the identity on the PSD block and ones on the orthant, made once
    per cone and read-only."""
    e = np.zeros(cone.total_len)
    e[_svec_index(cone.d).diag] = 1.0
    e[cone.orthant] = 1.0
    e.setflags(write=False)
    return e


class _Scaling:
    """The NT scaling W of one iteration, and the scaled point lam.

    The PSD block scales by W v = svec(R^T smat(v) R), where
    R = Lx V sig^{-1/2} comes from the Cholesky factors of X and S and the
    SVD Ls^T Lx = U diag(sig) V^T; then W^{-T} x = W s = svec(diag(sig)),
    and W^T W s = x.  The orthant scales by the vector w = sqrt(x / s) and
    has lam = sqrt(x s).  rr = r r^T, r = sig^{-1/2}, is what max_step
    scales the PSD block by.

    The step works in the scaled coordinates u = W^{-T} dx and v = W ds,
    where lam is diagonal on the PSD block: x + alpha dx stays in the cone
    exactly when lam + alpha u does (see max_step).  The PSD block of x or s
    that is not numerically positive definite raises LinAlgError.
    """

    def __init__(self, cone: ConeSpec, x: np.ndarray, s: np.ndarray):
        self.cone = cone
        psd, orth = cone.psd, cone.orthant
        Lx, Ls = np.linalg.cholesky(smat(np.array((x[psd], s[psd])), cone.d))
        _, sig, Vt = np.linalg.svd(Ls.T @ Lx)
        self.sig = sig = np.maximum(sig, 1.0e-150)
        r = sig ** -0.5
        self.R = (Lx @ Vt.T) * r
        self.rr = r[:, None] * r[None, :]
        self.w = np.sqrt(x[orth] / s[orth])
        self.lam = np.zeros(cone.total_len)
        self.lam[_svec_index(cone.d).diag] = sig
        self.lam[orth] = np.sqrt(x[orth] * s[orth])
        if not all(np.isfinite(a).all() for a in (self.lam, self.R, self.w)):
            raise np.linalg.LinAlgError("non-finite NT scaling")

    def schur(self, A: np.ndarray, psd, orthant: "_OrthantRows", S: np.ndarray):
        """B = A W^T as an operator, and the Schur complement A W^T W A^T
        written into S, the PSD block's term and then the orthant's.

        Row i of B is W a_i.  On the PSD block that is svec(R^T A_i R):
        where psd is the block's rows as an array (nrows, d, d), B is formed
        and the block writes B_p B_p^T; where it is the caller's rows object
        (solve_conic's psd_rows), the object writes the term from their
        structure, and B is never formed (_UnformedB).  On the orthant row
        i of B is a_i * w, and orthant adds A_l diag(w^2) A_l^T into S in
        place (_OrthantRows.add_term).  S, C-ordered and the run's one
        buffer (solve_conic), is defined by its lower triangle, all that
        _NormalFactor reads; it is exactly symmetric where B is formed.
        """
        cone, R, w = self.cone, self.R, self.w
        if not isinstance(psd, np.ndarray):
            psd.term(R, S)
            orthant.add_term(w, S)
            return _UnformedB(cone, psd, orthant, self)
        # R^T A_i R for every row i: T_i = A_i R as one GEMM, then R^T T_i
        # batched over the rows
        T = (psd.reshape(-1, cone.d) @ R).reshape(psd.shape)
        Bp = svec(np.matmul(R.T, T))
        B = np.empty_like(A)
        B[:, cone.psd] = Bp
        np.matmul(Bp, Bp.T, out=S)
        np.multiply(A[:, cone.orthant], w, out=B[:, cone.orthant])
        orthant.add_term(w, S)
        return _FormedB(B)

    def scale_s(self, ds: np.ndarray) -> np.ndarray:
        """W ds: maps s-space directions (batched over leading axes) into
        scaled space."""
        cone, R = self.cone, self.R
        out = np.empty_like(ds)
        out[..., cone.psd] = svec(R.T @ smat(ds[..., cone.psd], cone.d) @ R)
        out[..., cone.orthant] = ds[..., cone.orthant] * self.w
        return out

    def unscale_to_x(self, u: np.ndarray) -> np.ndarray:
        """W^T u: maps scaled-space vectors (batched over leading axes) back
        to x-space directions."""
        cone, R = self.cone, self.R
        out = np.empty_like(u)
        out[..., cone.psd] = svec(R @ smat(u[..., cone.psd], cone.d) @ R.T)
        out[..., cone.orthant] = u[..., cone.orthant] * self.w
        return out

    def jordan_prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        cone = self.cone
        out = np.empty_like(u)
        U, V = smat(np.array((u[cone.psd], v[cone.psd])), cone.d)
        out[cone.psd] = svec(0.5 * (U @ V + V @ U))
        out[cone.orthant] = u[cone.orthant] * v[cone.orthant]
        return out

    def jordan_solve_lam(self, k: np.ndarray) -> np.ndarray:
        """Solve L(lam) z = k where lam is the scaling's spectral point.  On
        the PSD block that divides entry (i, j) by (sig_i + sig_j) / 2, in
        svec coordinates."""
        cone, sig = self.cone, self.sig
        maps = _svec_index(cone.d)
        out = np.empty_like(k)
        denom = 0.5 * (sig[:, None] + sig[None, :])
        out[cone.psd] = k[cone.psd] / maps.weight / denom.reshape(-1)[maps.upper] * maps.weight
        out[cone.orthant] = k[cone.orthant] / self.lam[cone.orthant]
        return out

    def max_step(self, u: np.ndarray, v: np.ndarray) -> float:
        """Largest alpha with lam + alpha u and lam + alpha v both in the
        closed cone, that is, with x + alpha dx and s + alpha ds in it.

        On the PSD block lam = diag(sig), so the bound is set by the least
        eigenvalue of sig^{-1/2} smat(u) sig^{-1/2}, the same for v; the two
        share one eigvalsh.
        """
        cone = self.cone
        uv = np.array((u, v))
        eig = np.linalg.eigvalsh(smat(uv[:, cone.psd], cone.d) * self.rr)
        least = min(0.0, float(eig[:, 0].min()))
        least = min(least, float((uv[:, cone.orthant] / self.lam[cone.orthant]).min(initial=0.0)))
        return -1.0 / least if least < 0 else np.inf


class _FormedB:
    """B = A W^T, or A itself, as a matrix.  apply and adjoint act along the
    last axis of a vector or of a stack of them."""

    def __init__(self, B: np.ndarray):
        self.B = B

    def apply(self, u: np.ndarray) -> np.ndarray:
        """B u."""
        return u @ self.B.T

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """B^T y."""
        return y @ self.B


class _UnformedB:
    """B = A W^T at the scaling sc without forming it, or A itself when
    sc is None, taken through the structure of the PSD block's rows (psd,
    solve_conic's psd_rows) and the orthant's nonzeros (orthant); apply
    and adjoint act along the last axis like _FormedB's.

    The PSD rows take the factor R and the orthant's the vector w (None for
    A): B u is psd.apply(smat(u_p), R) = A_p svec(R smat(u_p) R^T) plus
    A_l (w u_l), and B^T y is svec(psd.adjoint(y, R)) = W_p (A_p^T y) on
    the PSD block and w (A_l^T y) on the orthant.
    """

    def __init__(self, cone: ConeSpec, psd, orthant: "_OrthantRows", sc: Optional[_Scaling] = None):
        self.cone, self.psd, self.orthant = cone, psd, orthant
        self.R, self.w = (None, None) if sc is None else (sc.R, sc.w)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """B u."""
        cone = self.cone
        out = np.zeros(u.shape[:-1] + (self.orthant.nrows,))
        out += self.psd.apply(smat(u[..., cone.psd], cone.d), self.R)
        out += self.orthant.apply(u[..., cone.orthant], self.w)
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """B^T y."""
        cone = self.cone
        out = np.empty(y.shape[:-1] + (cone.total_len,))
        out[..., cone.psd] = svec(self.psd.adjoint(y, self.R))
        out[..., cone.orthant] = self.orthant.adjoint(y, self.w)
        return out


class _NormalFactor:
    """Cholesky factor L of the Schur complement and the inverses of its
    diagonal blocks, both computed once per step, so that every solve of
    the step is matrix products (_cho_solve).

    Below _BLOCKED_MIN_ROWS rows L is one LAPACK Cholesky and the inverses
    are taken after it (_inverse_blocks); from there on the factor is
    blocked (_blocked_cholesky), since numpy's Cholesky runs far below GEMM
    speed at that size.  The factorization retries with an escalating
    diagonal regularization; after eight failures it raises LinAlgError,
    which ends the run.
    """

    def __init__(self, M: np.ndarray):
        n = M.shape[0]
        reg = 0.0
        for _ in range(8):
            try:
                Mr = M + reg * np.eye(n) if reg else M
                if n < _BLOCKED_MIN_ROWS:
                    self.L = np.linalg.cholesky(Mr)
                    self.inv = _inverse_blocks(self.L)
                else:
                    self.L, self.inv = _blocked_cholesky(Mr)
                break
            except np.linalg.LinAlgError:
                if reg == 0.0:
                    reg = max(float(np.trace(M)) / max(n, 1), 1.0e-300) * 1.0e-14
                else:
                    reg *= 100.0
        else:
            raise np.linalg.LinAlgError("Schur complement not positive definite")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs, for one right-hand side or a stack of them (k, n)."""
        return _cho_solve(self.L, self.inv, rhs.T).T


def _blocked_cholesky(M: np.ndarray):
    """(L, the inverses of its diagonal blocks) for symmetric positive
    definite M, by left-looking blocked Cholesky (Golub & Van Loan,
    Matrix Computations, 4.2), _TRSV_BLOCK columns at a time, so that
    nearly all of the work is matrix products.

    Block k's columns C = M[k:, k:e] - L[k:, :k] L[k:e, :k]^T give its
    diagonal block L_kk, one LAPACK Cholesky, and L_kk's inverse, as
    _inverse_blocks takes it.  The panel below is P = C_low L_kk^{-T},
    refined once by its residual: through the explicit inverse alone,
    P L_kk^T misses C_low by several times rounding where L_kk is
    ill-conditioned, and the factor's last bits decide some dual
    outcomes.  A diagonal block that is not positive definite raises
    LinAlgError.
    """
    n = M.shape[0]
    L = np.zeros_like(M)
    inv = []
    for k in range(0, n, _TRSV_BLOCK):
        e = min(k + _TRSV_BLOCK, n)
        C = M[k:, k:e] - L[k:, :k] @ L[k:e, :k].T
        Lkk = np.linalg.cholesky(C[:e - k])
        Li = np.linalg.solve(Lkk, np.eye(e - k))
        low = C[e - k:]
        P = low @ Li.T
        P += (low - P @ Lkk.T) @ Li.T
        L[k:e, k:e], L[e:, k:e] = Lkk, P
        inv.append(Li)
    return L, inv


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
    if len(inv) == 1:
        # one block and no coupling.  As on the blocked path, both products
        # read C-ordered operands and the result has rhs's layout: BLAS
        # sums differently by layout, and later products read this one.
        # The blocked loops give the same bits here but take 2.5-3x as long
        # (18-20 us against 6.5-7.7 us a solve at n = 12-60, one BLAS
        # thread, Xeon), about a tenth of a small IPM step, so keep this path
        x = np.empty_like(rhs)
        x[...] = inv[0].T @ (inv[0] @ np.ascontiguousarray(rhs))
        return x
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


class _OrthantRows(NamedTuple):
    """An orthant block's rows A_l (nrows, p) through their nonzero
    entries (_orthant_rows)."""

    nrows: int
    ncols: int
    row: np.ndarray  # the nonzero entries in order of column: row,
    col: np.ndarray  # column
    val: np.ndarray  # and value
    at: np.ndarray  # the distinct flat positions of the nonzero pairs,
    pair_at: np.ndarray  # and the pairs (_orthant_rows)
    pair_col: np.ndarray
    pair_prod: np.ndarray

    def add_term(self, w: np.ndarray, S: np.ndarray):
        """S += A_l diag(w^2) A_l^T in place, for C-ordered S: each entry
        its nonzero pairs' sum, taken in their order."""
        S.reshape(-1)[self.at] += np.bincount(self.pair_at, self.pair_prod * (w * w)[self.pair_col],
                                              self.at.size)

    def apply(self, x: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
        """A_l (w x), along the last axis; w = 1 for None."""
        if w is not None:
            x = x * w
        return _sum_at(self.row, x[..., self.col] * self.val, self.nrows)

    def adjoint(self, y: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
        """w (A_l^T y), along the last axis; w = 1 for None."""
        out = _sum_at(self.col, y[..., self.row] * self.val, self.ncols)
        return out if w is None else out * w


def _sum_at(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[..., k] = the sum of values[..., e] over the e with index[e] = k,
    batched over the leading axes of values."""
    lead, k = values.shape[:-1], math.prod(values.shape[:-1])
    flat = (np.arange(k)[:, None] * size + index).reshape(-1)
    out = np.bincount(flat, values.reshape(-1), k * size)
    return out.astype(float, copy=False).reshape(lead + (size,))


def _orthant_rows(A_l: np.ndarray) -> _OrthantRows:
    """The nonzero entries of an orthant block A_l (nrows, p), and its
    nonzero pairs: every (i, j, k) with A_l[i, k] and A_l[j, k] both
    nonzero, sum_k nnz_k^2 of them, in order of k, as the index in at of
    their flat position i * nrows + j, the column k and the product
    A_l[i, k] A_l[j, k], so that A_l diag(d) A_l^T holds
    bincount(pair_at, prod * d[col]) at the flat positions at; the pairs of
    (i, j) and (j, i) meet the same products in the same order, so the sum
    is exactly symmetric.
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
    at, pair_at = np.unique(i * nrows + j, return_inverse=True)
    return _OrthantRows(nrows, A_l.shape[1], row, col, A_l[row, col],
                        at, pair_at, k, A_l[i, k] * A_l[j, k])


def _scaled_newton(B, normal, r1, wr2, q):
    """Solve A dx = r1, A^T dy + ds = r2, dx + W^T W ds = W^T q in the scaled
    coordinates u = W^{-T} dx, v = W ds, where they read B u = r1,
    B^T dy + v = W r2 and u + v = q; returns (u, dy), and v = q - u.
    B is the operator of _Scaling.schur and wr2 is W r2.  Batched over a
    leading axis of r1, wr2 and q.
    """
    dy = normal.solve(r1 + B.apply(wr2 - q))
    return q - wr2 + B.adjoint(dy), dy


def _step(A, rows, b, c, psd, orthant, cone, S, point, rp, rd, rg):
    """Mehrotra predictor-corrector direction of the embedding and its step.

    B = A W^T, as a matrix or an operator, is formed from the PSD block's
    rows psd and the orthant's nonzeros, the Schur complement B B^T
    written into the run's buffer S (_Scaling.schur), and B B^T factored
    once; rows is A as an operator (_FormedB(A) or _UnformedB).
    The direction per unit of d tau, B u = b, B^T dy + v = W c, u + v = 0,
    is solved together with the predictor and shared with the corrector;
    the last row of the embedding and kappa d tau + tau d kappa = rk then
    fix d tau and d kappa.
    The whole step stays in the scaled coordinates u, v: the predictor's
    u and v give its step length, gap and the second-order term, and only
    the corrector's u is refined and mapped back to dx = W^T u.  Returns
    (dx, dy, ds, d tau, d kappa, step length).  Raises LinAlgError when the
    scaling or a step length cannot be formed.
    """
    x, y, s, tau, kappa = point
    sc = _Scaling(cone, x, s)
    lam = sc.lam
    B = sc.schur(A, psd, orthant, S)
    normal = _NormalFactor(S)
    w_crd = sc.scale_s(np.array((c, rd)))
    wc, wrd = w_crd
    # the direction per unit of d tau (q = 0) and the predictor (q = -lam)
    (u_t, u), (dy_t, dy) = _scaled_newton(
        B, normal, np.array((b, rp)), w_crd, np.array((np.zeros_like(lam), -lam))
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
    ds = eta * rd + dtau * c - rows.adjoint(dy)
    return sc.unscale_to_x(u), dy, ds, dtau, dkappa, alpha


def solve_conic(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    cone: ConeSpec,
    accept: Optional[Callable[[np.ndarray], bool]] = None,
    psd_rows=None,
) -> ConicResult:
    """Run the predictor-corrector loop on the embedding, from x = s = e,
    y = 0, tau = kappa = 1.  It ends in one of five ways:

    - "accepted": accept(y / tau) holds, tested on every iterate before
      the two tests below; x, y and s are divided by tau.
    - "optimal": the tau-normalized iterate has rp_rel, rd_rel and gap_rel
      all within IPM_TOL; x, y and s are divided by tau.
    - "infeasible": kappa dominates tau and y is a Farkas certificate,
      b.y > 0 with ||A^T y + s|| <= IPM_TOL b.y, so -A^T y lies within
      IPM_TOL of K; x, y and s are divided by b.y.
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

    The Schur complement of every step is written into one buffer S,
    allocated here once per run (_Scaling.schur).

    psd_rows is the PSD block's rows A_p of A as an object the caller
    builds from their structure: term(R, S) writes the block's Schur term
    A_p W_p^T W_p A_p^T at the scaling factor R (G = R R^T, see _Scaling)
    into every entry of the lower triangle of the run's S, and may leave
    its strict upper triangle as it finds it; apply(V, R) is
    A_p svec(R V R^T) for symmetric V (..., d, d), and adjoint(y, R) is
    R^T smat(A_p^T y) R, both batched over leading axes and with R = I for
    None.  A then holds only the orthant's columns, (nrows, p), and is
    read only for its nonzeros; B = A W^T is never formed, and every
    product with A or B goes through those rows and the orthant's
    nonzeros (_UnformedB).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    nrows = A.shape[0]
    nu = cone.barrier_degree

    # the cached identity point is read-only; every iterate is a new array
    x = s = _identity_point(cone)
    y = np.zeros(nrows)
    if nrows == 0:
        x, s = x.copy(), s.copy()
        return ConicResult("optimal", x, y, s, 0, 0.0, 0.0, 0.0)
    bnorm = 1.0 + math.sqrt(b @ b)
    cnorm = 1.0 + math.sqrt(c @ c)
    if psd_rows is None:
        psd, orthant = smat(A[:, cone.psd], cone.d), _orthant_rows(A[:, cone.orthant])
        rows = _FormedB(A)
    else:
        psd, orthant = psd_rows, _orthant_rows(A)
        rows = _UnformedB(cone, psd, orthant)
    S = np.zeros((nrows, nrows))
    tau = kappa = 1.0
    status, it, prev, prev_score = "max_iters", 0, None, np.inf
    history = []

    with np.errstate(all="ignore"):
        for it in range(1, MAX_ITERS + 1):
            aty = rows.adjoint(y)
            rp = tau * b - rows.apply(x)
            rd = tau * c - aty - s
            by, cx, xs = float(b @ y), float(c @ x), float(x @ s)
            rg = kappa - by + cx
            rp_n = math.sqrt(rp @ rp) / bnorm
            rd_n = math.sqrt(rd @ rd) / cnorm
            rp_rel, rd_rel = rp_n / tau, rd_n / tau
            gap_rel = xs / (tau * (tau + abs(cx) + abs(by)))
            history.append((rp_rel, rd_rel, gap_rel))
            point = (x, y, s, tau, kappa, rp_rel, rd_rel, gap_rel)

            if accept is not None and accept(y / tau):
                status = "accepted"
                break
            if rp_rel <= IPM_TOL and rd_rel <= IPM_TOL and gap_rel <= IPM_TOL:
                status = "optimal"
                break
            if kappa > tau and by > 0 and math.sqrt((aty + s) @ (aty + s)) / by <= IPM_TOL:
                status = "infeasible"
                break
            score = max(rp_n, rd_n, (xs + tau * kappa) / (nu + 1))
            if not score < prev_score:
                status, point = "stalled", prev or point
                break
            if it == MAX_ITERS:
                break
            prev, prev_score = point, score

            try:
                step = _step(A, rows, b, c, psd, orthant, cone, S, point[:5], rp, rd, rg)
            except np.linalg.LinAlgError:
                status = "stalled"
                break
            dx, dy, ds, dtau, dkappa, alpha = step
            x, y, s = x + alpha * dx, y + alpha * dy, s + alpha * ds
            tau, kappa = tau + alpha * dtau, kappa + alpha * dkappa

        x, y, s, tau, kappa, rp_rel, rd_rel, gap_rel = point
        scale = float(b @ y) if status == "infeasible" else tau
        x, y, s = x / scale, y / scale, s / scale

    return ConicResult(status, x, y, s, it, rp_rel, rd_rel, gap_rel, history)
