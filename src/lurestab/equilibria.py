"""Whether any map of the class gives the normalized loop a nonzero equilibrium.

On the band [0, 1] an equilibrium of the loop closed with psi has
x = F w, w = psi(z) and z = G w, with F = (I - A)^{-1} B and G = C F + D
(equilibrium_maps).  It is nonzero where its state x is; "the state of w
is zero" is written once, as zero_state and its constant ZERO_STATE, and
detector and report read the same test.  A slope-[0, 1] map through the
origin and the nodes (z_i, w_i) exists exactly when, taken in the order of
z, every consecutive pair of nodes has dw >= 0 and dz - dw >= 0; for the
odd class the nodes are first folded onto z >= 0, (s_i z_i, s_i w_i) with
s_i the sign of z_i (Taylor, Hendrickx & Glineur 2017, the 1-D
interpolation conditions).  For one order of the nodes these rows cut a
cone of w.  The cone is pointed, since its dw rows alone have full rank,
and dz = 0 forces dw = 0, so its nonzero points are exactly the equilibria
with w != 0.  As the state is linear in w, the cone holds a point of
nonzero state exactly when one of its extreme rays has one, and each
extreme ray is the null vector of m - 1 of its rows.

Up to sign, every order's rows come from one set: for each pair of nodes
its dw row d (e_j - e_i, or e_j -+ e_i for the odd class, with e_0 = 0 the
origin) and its dz - dw row d (G - I).  So the search cuts one candidate ray
from each (m - 1)-subset of that set, as signed maximal minors built up
from explicit 2 x 2 minors, drops the candidates whose state is zero, and
checks each of the rest directly: sort its nodes by z and read the two rows
of every consecutive pair.  A candidate and its negative give the same
differences (the slope class reverses the order, the odd class folds onto
the same nodes), so one sign is checked.  The tables are built once per
(m, class), on first use.

A linear map shows an equilibrium without a search: where G has a real
eigenvalue lambda >= 1 whose eigenvector w has a nonzero state,
psi(z) = z / lambda has slope 1 / lambda in (0, 1], is odd, and closes the
loop with the equilibrium input w.  Such a loop is not absolutely stable,
so the LMI, a sufficient condition, has no strict solution: analyze reads
lambda and the equilibrium (linear_equilibrium) before the primal, skips
that solve and the search, and falls back on the equilibrium where the
dual's witness fails, as it falls back on the search's.  Both hand on a
known equilibrium as the pair (h1, w), with h1 = F w from the F of the
zero-state test, so the state that test passed is the state reported.
The search takes loops of up to MAX_CHANNELS channels; analyze, its one
caller, holds it to that.
"""

import itertools
from functools import lru_cache
from typing import Optional

import numpy as np

from .system import NonlinearityClass, StateSpaceSystem

__all__ = ["MAX_CHANNELS", "TOL_EQUILIBRIUM", "ZERO_STATE", "equilibrium_maps",
           "linear_equilibrium", "search", "zero_state"]

# Largest channel count searched: the candidates grow as C(2 p, m - 1) in
# the p node pairs (1 140 for the slope class and 4 960 for the odd one at m = 4).
MAX_CHANNELS = 4
# Largest row violation of a unit candidate, each row scaled to unit norm,
# that still counts as an equilibrium; the witness's checks have the last word.
TOL_EQUILIBRIUM = 1.0e-8
# Largest ratio of ||h1|| to ||w|| at which the state h1 of input w counts as
# zero (zero_state), so that the input gives no nonzero equilibrium.
ZERO_STATE = 1.0e-9


@lru_cache(maxsize=None)
def _tables(m: int, odd: bool):
    """The dw row d of every node pair, up to sign; every (m - 1)-subset of
    the 2 p rows [d; d (G - I)], as indices; and, for each ordered pair of
    nodes (0 the origin, i + 1 channel i) and their fold signs (0 for +,
    1 for -), the index in d of the pair's row s_b e_b - s_a e_a and its
    sign there."""
    e = np.vstack([np.zeros(m), np.eye(m)])
    index = np.zeros((m + 1, m + 1, 2, 2), dtype=np.intp)
    sign = np.zeros((m + 1, m + 1, 2, 2))
    d = []
    for i, j in itertools.combinations(range(m + 1), 2):
        for s in (1, -1) if odd and i else (1,):
            # s_j e_j - s_i e_i = s_j (e_j - s e_i) wherever s_i s_j = s;
            # the origin's fold sign is +
            for sj in (1, -1):
                bi, bj = int(i and s * sj < 0), int(sj < 0)
                index[i, j, bi, bj] = index[j, i, bj, bi] = len(d)
                sign[i, j, bi, bj], sign[j, i, bj, bi] = sj, -sj
            d.append(e[j] - s * e[i])
    subsets = np.array(list(itertools.combinations(range(2 * len(d)), m - 1)), dtype=np.intp)
    return np.array(d), subsets, index, sign


def _null_vectors(X: np.ndarray) -> np.ndarray:
    """v with X v = 0 for each (m - 1) x m matrix X: its signed maximal
    minors, by Laplace expansion along each row from the last, so the first
    products are 2 x 2 minors.  v vanishes, up to rounding, where X's rows
    are dependent."""
    k, r, m = X.shape
    minors = {(): np.ones(k)}
    for row in range(r - 1, -1, -1):
        minors = {
            cols: sum(
                (-1) ** a * X[:, row, c] * minors[cols[:a] + cols[a + 1:]]
                for a, c in enumerate(cols)
            )
            for cols in itertools.combinations(range(m), r - row)
        }
    return np.stack(
        [(-1) ** j * minors[tuple(c for c in range(m) if c != j)] for j in range(m)], axis=1
    )


def equilibrium_maps(sys: StateSpaceSystem) -> tuple:
    """(F, G) with F = (I - A)^{-1} B and G = C F + D: the loop's state
    h1 = F w and output z = G w at the equilibrium with input w."""
    F = np.linalg.solve(np.eye(sys.n) - sys.A, sys.B)
    return F, sys.C @ F + sys.D


def zero_state(h1: np.ndarray, w: np.ndarray):
    """Whether the state h1 = F w of input w counts as zero:
    ||h1|| <= ZERO_STATE max(||h1||, ||w||), which holds at h1 = 0.  Over
    the last axis, so stacked pairs give one answer each."""
    nh1 = np.linalg.norm(h1, axis=-1)
    return ~(nh1 > ZERO_STATE * np.maximum(nh1, np.linalg.norm(w, axis=-1)))


def linear_equilibrium(sys: StateSpaceSystem) -> Optional[tuple]:
    """(lambda, (h1, w)): the largest real eigenvalue lambda >= 1 of G
    whose unit eigenvector w has a nonzero state h1 = F w, and the
    equilibrium (h1, w) that the linear map z / lambda of both classes
    gives the normalized loop sys; None when G has none (LAPACK returns a
    real eigenvalue with imaginary part exactly 0, and a real eigenvector
    for it)."""
    F, G = equilibrium_maps(sys)
    lam, V = np.linalg.eig(G)
    real = np.flatnonzero((lam.imag == 0.0) & (lam.real >= 1.0))
    W = V[:, real].real.T
    real = real[~zero_state(W @ F.T, W)]
    if not real.size:
        return None
    k = real[np.argmax(lam.real[real])]
    w = V[:, k].real
    return float(lam.real[k]), (F @ w, w)


def search(sys: StateSpaceSystem) -> tuple:
    """(record, equilibrium) of the search for a slope-[0, 1] map of sys's
    class that gives the normalized loop sys a nonzero equilibrium, for
    m <= MAX_CHANNELS.

    The record holds the rows the candidates were cut from, the candidate
    rays and closest, the least over candidates of the largest violation
    of a unit candidate's order rows, each row scaled to unit norm.  A
    candidate whose state is zero (zero_state) gives no nonzero equilibrium
    and is dropped; with every candidate dropped, closest is 1, the most a
    unit row can take from a unit candidate.  equilibrium is (h1, w), the
    unit candidate w that attains closest and its state h1 = F w, when
    closest is within TOL_EQUILIBRIUM, else None: no map of the class has
    an equilibrium.
    """
    odd = sys.nl_class is NonlinearityClass.SLOPE_ODD
    d, subsets, index, sign = _tables(sys.m, odd)
    F, G = equilibrium_maps(sys)

    rows = np.vstack([d, d @ (G - np.eye(sys.m))])
    rows /= np.maximum(np.linalg.norm(rows, axis=1), np.finfo(float).tiny)[:, None]
    v = _null_vectors(rows[subsets])
    v = v[~zero_state(v @ F.T, v)]  # v = 0 too
    v /= np.linalg.norm(v, axis=1)[:, None]
    if not len(v):
        return {"rows": len(rows), "rays": 0, "closest": 1.0}, None

    # the nodes in the order of z, folded for the odd class, origin first
    z = v @ G.T
    fold = np.hstack([np.zeros((len(v), 1), dtype=bool), odd & (z < 0)])
    order = np.argsort(np.hstack([np.zeros((len(v), 1)), np.abs(z) if odd else z]),
                       axis=1, kind="stable")
    bit = np.take_along_axis(fold, order, axis=1).astype(np.intp)
    # each consecutive pair's rows dw and dz - dw, read off every row's
    # value at every candidate
    pair = np.ravel_multi_index((order[:, :-1], order[:, 1:], bit[:, :-1], bit[:, 1:]), index.shape)
    at, sg = index.take(pair), sign.take(pair)
    values = v @ rows.T
    slack = np.hstack([sg * np.take_along_axis(values, at + k, axis=1) for k in (0, len(d))])
    violation = np.maximum(-np.min(slack, axis=1), 0.0)
    best = int(np.argmin(violation))
    record = {"rows": len(rows), "rays": len(v), "closest": float(violation[best])}
    return record, (F @ v[best], v[best]) if violation[best] <= TOL_EQUILIBRIUM else None
