"""Feasibility engine: canonicalize declarative problems, solve, reduce rank.

The engine probes a problem's callables on a coordinate basis to build a
dense matrix form.  An equality-form problem (the dual: cone variables,
affine equality blocks) becomes A x = b, x in (PSD blocks) x (orthant),
with equilibrated rows, and is decided through a phase-1 reformulation;
infeasibility is only declared with an explicit Farkas certificate in hand.
An inequality-form problem (the primal LMI: free decision variables z,
constraint expressions F0 + F z in cones) goes to the interior-point core
as the dual side of its standard form, max b.y s.t. c - A^T y in K with
A = -F^T / d, c = F0 and y = d z, so the Schur complement is indexed by the
decision coordinates.  Either way the verdict rests on verifying the raw
constraints of the original problem, never on solver status alone.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .conic import ConeSpec, IpmSettings, smat, solve_conic, svec, svec_dim
from .errors import StructuralError
from .lmi import SdpFeasibilityProblem

__all__ = ["Residuals", "SolveResult", "SolverSettings", "reduce_rank", "solve"]


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration limits for the engine.

    tol_eq scales with (1 + max|rhs|) per equality block; cone_tol is an
    absolute bound on cone violations of returned assignments.  The margin
    threshold decides when a max-margin primal counts as strictly feasible.
    """

    tol_rank: float = 1.0e-6
    tol_eq: float = 1.0e-8
    primal_margin: float = 1.0e-7
    max_ipm_iters: int = 200
    ipm_tol_feas: float = 1.0e-10
    ipm_tol_gap: float = 1.0e-10
    margin_ipm_tol_feas: float = 1.0e-11
    margin_ipm_tol_gap: float = 1.0e-11
    cone_tol: float = 1.0e-9
    farkas_tol: float = 1.0e-7
    max_rank_rounds: int = 10
    steer_weight: float = 1.0e-3


@dataclass(frozen=True)
class Residuals:
    """Raw constraint quality of the returned assignment."""

    max_equality: float
    max_cone_violation: float
    margin: Optional[float] = None


@dataclass
class SolveResult:
    """canonical is the problem's dense form, reused by reduce_rank."""

    status: str  # "feasible" | "infeasible" | "numerical_limit"
    assignment: dict
    residuals: Residuals
    diagnostics: dict = field(default_factory=dict)
    canonical: Optional[Union["_Canonical", "_Inequality"]] = field(default=None, repr=False)


_FREE_KINDS = ("sym", "vector", "hollow")
# how the entries of a constraint expression are scalarized, per cone
_CONSTRAINT_STRUCTURE = {"psd": "sym", "nonneg": "vector", "hollow_nonneg": "hollow"}


@lru_cache(maxsize=None)
def _offdiag_pairs(d: int):
    """Row-major (row, col) indices of the off-diagonal entries of d x d."""
    rows, cols = np.nonzero(~np.eye(d, dtype=bool))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _var_ncoords(v) -> int:
    if v.kind in ("psd", "sym"):
        return svec_dim(v.dim)
    if v.kind in ("nonneg", "vector"):
        return v.dim
    return v.dim * v.dim - v.dim  # z0, hollow


def _var_value(v, coords: np.ndarray) -> np.ndarray:
    if v.kind in ("psd", "sym"):
        return smat(coords, v.dim)
    if v.kind in ("nonneg", "vector"):
        return np.asarray(coords, dtype=float)
    rows, cols = _offdiag_pairs(v.dim)
    out = np.zeros((v.dim, v.dim))
    sign = -1.0 if v.kind == "z0" else 1.0
    out[rows, cols] = sign * np.asarray(coords, dtype=float)
    return out


def _scalarize(value, structure: str) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if structure == "sym":
        return svec(0.5 * (value + value.T))
    if structure == "full":
        return value.ravel()
    if structure == "hollow":
        rows, cols = _offdiag_pairs(value.shape[0])
        return value[rows, cols]
    return np.atleast_1d(value).ravel()


def _entry_error(value, rhs, structure: str) -> float:
    diff = np.asarray(value, dtype=float) - np.asarray(rhs, dtype=float)
    if structure == "hollow":
        rows, cols = _offdiag_pairs(diff.shape[0])
        diff = diff[rows, cols]
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def _cone_violation(cone: str, value) -> float:
    """Worst violation of a variable kind's or a constraint's cone, >= 0.

    "z0" also requires a zero diagonal; "hollow_nonneg" ignores it.  The
    free variable kinds carry no cone constraint.
    """
    value = np.asarray(value, dtype=float)
    if cone == "psd":
        w = np.linalg.eigvalsh(0.5 * (value + value.T))
        return float(max(0.0, -w[0]))
    if cone == "nonneg":
        return float(max(0.0, -np.min(value))) if value.size else 0.0
    if cone in ("z0", "hollow_nonneg"):
        rows, cols = _offdiag_pairs(value.shape[0])
        off = value[rows, cols]
        worst = 0.0
        if off.size:
            worst = float(np.max(off)) if cone == "z0" else float(-np.min(off))
        if cone == "z0":
            worst = max(worst, float(np.max(np.abs(np.diag(value)))))
        return max(worst, 0.0)
    return 0.0


def _probe(var_slices, ncols: int, evaluate, zero: dict, base: np.ndarray) -> np.ndarray:
    """Columns evaluate(e_k) - base over the coordinate basis e_k."""
    out = np.zeros((base.size, ncols))
    for v, sl in var_slices:
        nc = sl.stop - sl.start
        for k in range(nc):
            coords = np.zeros(nc)
            coords[k] = 1.0
            assign = dict(zero)
            assign[v.name] = _var_value(v, coords)
            out[:, sl.start + k] = evaluate(assign) - base
    return out


def _layout(variables) -> tuple:
    """Contiguous coordinate slices of the variables, in order, and their total."""
    slices, at = [], 0
    for v in variables:
        nc = _var_ncoords(v)
        slices.append((v, slice(at, at + nc)))
        at += nc
    return slices, at


def _stack(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0)


class _Canonical:
    """Dense standard form of an equality-form problem, built once and reused."""

    def __init__(self, problem: SdpFeasibilityProblem):
        self.problem = problem
        # PSD blocks first, then every orthant variable in one block
        psd = [v for v in problem.variables if v.kind == "psd"]
        lin = [v for v in problem.variables if v.kind in ("nonneg", "z0")]
        if len(psd) + len(lin) != len(problem.variables):
            raise StructuralError("an equality-form problem has cone variables only")
        slices, self.ncone = _layout(psd + lin)
        self.psd_vars, self.lin_vars = slices[: len(psd)], slices[len(psd) :]
        lin_total = self.ncone - sum(svec_dim(v.dim) for v in psd)
        blocks = [("s", v.dim) for v in psd] + ([("l", lin_total)] if lin_total else [])
        self.cone = ConeSpec(blocks=tuple(blocks))

        # probe the equality callables on the coordinate basis
        zero = problem.zero_assignment()
        c0_parts, rhs_parts = [], []
        for eq in problem.equalities:
            base = _scalarize(eq.fn(zero), eq.structure)
            rhs = _scalarize(eq.rhs, eq.structure)
            if base.shape != rhs.shape:
                raise StructuralError(
                    f"equality {eq.name!r}: value/rhs shape mismatch"
                )
            c0_parts.append(base)
            rhs_parts.append(rhs)
        c0 = _stack(c0_parts)
        b_raw = _stack(rhs_parts) - c0

        def evaluate(assign):
            return _stack([_scalarize(eq.fn(assign), eq.structure) for eq in problem.equalities])

        A_red = _probe(self.psd_vars + self.lin_vars, self.ncone, evaluate, zero, c0)
        b_red = b_raw

        # drop numerically empty rows; flag ones with a nonzero constant
        self.inconsistent = False
        keep = []
        scale_ref = max(float(np.max(np.abs(A_red))) if A_red.size else 0.0, 1.0)
        for i in range(A_red.shape[0]):
            rn = float(np.linalg.norm(A_red[i]))
            if rn <= 1.0e-13 * scale_ref:
                if abs(b_red[i]) > 1.0e-10 * max(1.0, float(np.abs(b_raw).max() if b_raw.size else 0.0)):
                    self.inconsistent = True
            else:
                keep.append(i)
        A_red = A_red[keep]
        b_red = b_red[keep]

        d = np.maximum(np.linalg.norm(A_red, axis=1), np.abs(b_red)) if A_red.size else np.zeros(0)
        d = np.maximum(d, 1.0e-12)
        self.A = A_red / d[:, None] if A_red.size else A_red
        self.b = b_red / d if b_red.size else b_red

    def reconstruct(self, x_cone: np.ndarray) -> dict:
        """Assignment from cone coordinates."""
        return {v.name: _var_value(v, x_cone[sl]) for v, sl in self.psd_vars + self.lin_vars}

    def interior_point(self) -> np.ndarray:
        x = np.zeros(self.ncone)
        for v, sl in self.psd_vars:
            x[sl] = svec(np.eye(v.dim))
        for _, sl in self.lin_vars:
            x[sl] = 1.0
        return x

    def ls_correct(self, x_cone: np.ndarray) -> np.ndarray:
        """Minimum-norm shift of the cone coordinates onto A x = b."""
        if not self.A.size:
            return x_cone
        resid = self.b - self.A @ x_cone
        delta = np.linalg.lstsq(self.A, resid, rcond=None)[0]
        return x_cone + delta

    def verify(self, assignment: dict, settings: SolverSettings):
        """Raw residuals of the original problem at this assignment."""
        max_eq = 0.0
        eq_ok = True
        for eq in self.problem.equalities:
            err = _entry_error(eq.fn(assignment), eq.rhs, eq.structure)
            max_eq = max(max_eq, err)
            rhs_scale = float(np.max(np.abs(eq.rhs))) if np.size(eq.rhs) else 0.0
            if err > settings.tol_eq * (1.0 + rhs_scale):
                eq_ok = False
        max_cone = 0.0
        for v in self.problem.variables:
            max_cone = max(max_cone, _cone_violation(v.kind, assignment[v.name]))
        ok = eq_ok and max_cone <= settings.cone_tol
        return ok, max_eq, max_cone


class _Inequality:
    """Dense form of an inequality-form problem, over decision coordinates z.

    The constraint expressions, PSD ones first, scalarize to F0 + F z.  The
    IPM solves max b.y s.t. F0 - A^T y in K with A = -F^T / d and the
    objective b = b_obj / d, where d equilibrates the rows of A; z = y / d.
    """

    def __init__(self, problem: SdpFeasibilityProblem):
        if any(v.kind not in _FREE_KINDS for v in problem.variables):
            raise StructuralError("an inequality-form problem has free variables only")
        self.problem = problem
        self.var_slices, nz = _layout(problem.variables)
        # PSD constraints first, then every orthant one in one block
        psd = [con for con in problem.constraints if con.cone == "psd"]
        self.constraints = psd + [con for con in problem.constraints if con.cone != "psd"]

        zero = problem.zero_assignment()
        values = [con.fn(zero) for con in self.constraints]
        self.F0 = _stack([
            _scalarize(val, _CONSTRAINT_STRUCTURE[con.cone])
            for con, val in zip(self.constraints, values)
        ])
        F = _probe(self.var_slices, nz, self._evaluate, zero, self.F0)
        dims = [np.shape(val)[0] for val in values[: len(psd)]]
        lin_total = self.F0.size - sum(svec_dim(k) for k in dims)
        blocks = [("s", k) for k in dims] + ([("l", lin_total)] if lin_total else [])
        self.cone = ConeSpec(blocks=tuple(blocks))

        self.objective = np.zeros(nz)
        named = {v.name: sl for v, sl in self.var_slices}
        for name, coeff in problem.objective.items():
            self.objective[named[name]] = np.ravel(coeff)

        d = np.maximum(np.linalg.norm(F, axis=0), np.abs(self.objective))
        self.d = np.maximum(d, 1.0e-12)
        self.A = -F.T / self.d[:, None]
        self.b = self.objective / self.d

    def _evaluate(self, assign: dict) -> np.ndarray:
        return _stack([
            _scalarize(con.fn(assign), _CONSTRAINT_STRUCTURE[con.cone]) for con in self.constraints
        ])

    def reconstruct(self, z: np.ndarray) -> dict:
        """Assignment from decision coordinates; a variable without
        coordinates (hollow at dimension 1) is zero."""
        return {v.name: _var_value(v, z[sl]) for v, sl in self.var_slices}

    def verify(self, assignment: dict, settings: SolverSettings):
        """Worst cone violation of the constraint expressions at this
        assignment; there are no equality rows, so that residual is 0."""
        max_cone = max(
            (_cone_violation(con.cone, con.fn(assignment)) for con in self.constraints),
            default=0.0,
        )
        return max_cone <= settings.cone_tol, 0.0, max_cone


def _farkas_quality(canon: _Canonical, y: np.ndarray):
    """(b.y-normalized certificate violation, or None if no certificate)."""
    if not canon.A.size:
        return None
    by = float(canon.b @ y)
    if by <= 0.0:
        return None
    yn = y / by
    xi = -(canon.A.T @ yn)
    q = 0.0
    for v, sl in canon.psd_vars:
        w = np.linalg.eigvalsh(smat(xi[sl], v.dim))
        q = max(q, max(0.0, -float(w[0])))
    for _, sl in canon.lin_vars:
        if sl.stop > sl.start:
            q = max(q, max(0.0, -float(np.min(xi[sl]))))
    return q


def _primal_true_margin(problem: SdpFeasibilityProblem, assignment: dict) -> float:
    """Achieved margin -lambda_max of the strict LMI at this assignment."""
    core = np.asarray(problem.meta["strict_lmi"](assignment), dtype=float)
    w = np.linalg.eigvalsh(0.5 * (core + core.T))
    return -float(w[-1])


def _candidates(canon: _Canonical, x: np.ndarray, settings: SolverSettings):
    """Reconstruct and verify the least-squares-corrected point, then x.

    Yields (label, assignment, ok, max_eq, max_cone) lazily, so a caller
    that settles on the corrected point never reconstructs the raw one.
    """
    for label, xc in (("corrected", canon.ls_correct(x)), ("raw", x)):
        assignment = canon.reconstruct(xc)
        ok, max_eq, max_cone = canon.verify(assignment, settings)
        yield label, assignment, ok, max_eq, max_cone


def _solve_inequality(problem, form: _Inequality, settings: SolverSettings) -> SolveResult:
    """Maximize the objective (the margin t of the primal LMI)."""
    ipm = IpmSettings(
        max_iters=settings.max_ipm_iters,
        tol_feas=settings.margin_ipm_tol_feas,
        tol_gap=settings.margin_ipm_tol_gap,
    )
    res = solve_conic(form.A, form.b, form.F0, form.cone, ipm)
    z = res.y / form.d
    assignment = form.reconstruct(z)
    ok, max_eq, max_cone = form.verify(assignment, settings)
    t_hat = float(form.objective @ z)
    true_margin = _primal_true_margin(problem, assignment)

    diagnostics = {
        "ipm_status": res.status,
        "ipm_iterations": res.iterations,
        "objective_value": res.obj,
        "margin_optimum": t_hat,
        "margin_achieved": true_margin,
        "verified": ok,
    }

    if ok and true_margin >= settings.primal_margin:
        status = "feasible"
        margin = true_margin
    elif res.status == "optimal" and ok:
        status = "infeasible"
        margin = t_hat
    else:
        status = "numerical_limit"
        margin = true_margin
    return SolveResult(
        status=status,
        assignment=assignment,
        residuals=Residuals(max_eq, max_cone, margin=float(margin)),
        diagnostics=diagnostics,
    )


def _solve_phase1(problem, canon: _Canonical, settings: SolverSettings) -> SolveResult:
    x0 = canon.interior_point()
    r0 = canon.b - canon.A @ x0 if canon.A.size else np.zeros(0)
    nrows = canon.A.shape[0]
    A_ext = np.hstack([canon.A, r0[:, None]]) if nrows else np.zeros((0, canon.ncone + 1))
    cone_ext = ConeSpec(blocks=canon.cone.blocks + (("l", 1),))
    c = np.zeros(canon.ncone + 1)
    c[-1] = 1.0
    ipm = IpmSettings(
        max_iters=settings.max_ipm_iters,
        tol_feas=settings.ipm_tol_feas,
        tol_gap=settings.ipm_tol_gap,
    )
    res = solve_conic(A_ext, canon.b, c, cone_ext, ipm)
    theta = float(res.x[-1])

    candidates = list(_candidates(canon, res.x[:-1], settings))
    passing = [cand for cand in candidates if cand[2]]
    diagnostics = {
        "ipm_status": res.status,
        "ipm_iterations": res.iterations,
        "theta": theta,
    }
    if passing:
        # the smallest equality residual wins; a tie goes to the corrected point
        label, assignment, _, max_eq, max_cone = min(passing, key=lambda cand: cand[3])
        diagnostics["candidate"] = label
        return SolveResult(
            status="feasible",
            assignment=assignment,
            residuals=Residuals(max_eq, max_cone),
            diagnostics=diagnostics,
        )

    # no verified point: try to certify infeasibility
    q = _farkas_quality(canon, res.y)
    diagnostics["farkas_quality"] = q
    _, assignment, _, max_eq, max_cone = candidates[-1]  # the raw point
    if q is not None and q <= settings.farkas_tol:
        status = "infeasible"
    else:
        status = "numerical_limit"
    return SolveResult(
        status=status,
        assignment=assignment,
        residuals=Residuals(max_eq, max_cone),
        diagnostics=diagnostics,
    )


def solve(problem: SdpFeasibilityProblem, settings: Optional[SolverSettings] = None) -> SolveResult:
    """Decide the problem and return a verified assignment or certificate.

    An inequality-form problem is the max-margin primal: the verdict is
    "feasible" when the returned assignment itself achieves the margin
    threshold, "infeasible" when a converged optimum stays below it.  An
    equality-form problem runs through phase-1; "infeasible" requires a
    Farkas certificate.  Anything undecided comes back "numerical_limit".
    """
    settings = settings or SolverSettings()
    if problem.constraints:
        canon = _Inequality(problem)
        result = _solve_inequality(problem, canon, settings)
    else:
        canon = _Canonical(problem)
        if canon.inconsistent:
            assignment = canon.reconstruct(canon.interior_point())
            _, max_eq, max_cone = canon.verify(assignment, settings)
            result = SolveResult(
                status="infeasible",
                assignment=assignment,
                residuals=Residuals(max_eq, max_cone),
                diagnostics={"reason": "inconsistent constant row"},
            )
        else:
            result = _solve_phase1(problem, canon, settings)
    result.canonical = canon
    return result


def _rank_ratio(H: np.ndarray):
    w = np.linalg.eigvalsh(0.5 * (H + H.T))[::-1]
    lead = max(float(w[0]), 1.0e-300)
    ratio = float(w[1]) / lead if w.size > 1 else 0.0
    return max(ratio, 0.0), w


def _complete_pair_bounds(d: np.ndarray, R: np.ndarray):
    """Find f, g >= 0 with f + g = d and f_j + g_i >= R_ij for i != j.

    Difference-constraint system solved by Bellman-Ford shortest paths from
    a virtual source; returns (f, g) or None when no solution exists.
    """
    m = d.size
    edges = []
    for i in range(m):
        edges.append((m, i, float(d[i])))  # g_i <= d_i
        edges.append((i, m, 0.0))  # g_i >= 0
    for i in range(m):
        for j in range(m):
            if i != j:
                edges.append((i, j, float(d[j] - R[i, j])))  # g_j - g_i <= d_j - R_ij
    dist = np.full(m + 1, np.inf)
    dist[m] = 0.0
    for _ in range(m + 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v] - 1.0e-15:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    else:
        # at an extremal certificate the tight cycles sum to zero up to
        # rounding, so judge inconsistency by the residual violation scale
        # rather than by non-convergence alone; the caller re-verifies the
        # completed assignment either way
        scale = max(1.0, float(np.max(np.abs(d))), float(np.max(np.abs(R))))
        worst = max(dist[v] - dist[u] - w for u, v, w in edges)
        if worst > 1.0e-9 * scale:
            return None  # genuinely negative cycle: constraints inconsistent
    g = np.maximum(dist[:m], 0.0)
    f = np.maximum(d - g, 0.0)
    return f, g


def _rank_one_polish(problem, canon: _Canonical, assignment: dict, settings: SolverSettings):
    """Rebuild the dual certificate exactly from the dominant eigenvector.

    Projects the top eigenvector of H onto the invariant subspace
    null([A - I, B]) so the dynamics block holds to rounding error, then
    recovers f, g, X (and Z) by completing the coupling identities.  Only
    the branch where an equilibrium can be concluded is polished; anything
    else returns None and the caller keeps the iterate it has.
    """
    sys = problem.meta["system"]
    kind = problem.meta["kind"]
    n, m = sys.n, sys.m
    H = assignment["H"]
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    h = V[:, -1] * np.sqrt(max(float(w[-1]), 0.0))
    h1, h2 = h[:n], h[n:]
    disc = float(h1 @ (sys.A @ h1 + sys.B @ h2))
    if disc < -1.0e-12 * float(h @ h):
        return None

    K = np.hstack([sys.A - np.eye(n), sys.B])
    _, sig, Vt = np.linalg.svd(K)
    tol = max(K.shape) * np.finfo(float).eps * (sig[0] if sig.size else 0.0)
    r = int(np.sum(sig > tol))
    N = Vt[r:].T
    if N.shape[1] == 0:
        return None
    hp = N @ (N.T @ h)
    nrm = float(np.linalg.norm(hp))
    if nrm <= 1.0e-8 * max(float(np.linalg.norm(h)), 1.0e-300):
        return None
    hn = hp / nrm
    h1n = hn[:n]
    pick = int(np.argmax(np.abs(h1n))) if float(np.max(np.abs(h1n))) > 0 else None
    if pick is not None and h1n[pick] < 0:
        hn = -hn
    h1n, h2n = hn[:n], hn[n:]

    z = sys.C @ h1n + sys.D @ h2n
    wv = h2n
    d = wv * (z - wv)
    if float(np.min(d)) < -1.0e-10:
        return None
    d = np.maximum(d, 0.0)
    Y = np.outer(wv, z - wv)
    R = Y if kind.tag == "dual_dhd" else np.abs(Y)
    fg = _complete_pair_bounds(d, R)
    if fg is None:
        return None
    f, g = fg

    new = {"H": np.outer(hn, hn), "f": f, "g": g}
    if kind.tag == "dual_dhd":
        X = Y - f[None, :] - g[:, None]
        np.fill_diagonal(X, 0.0)
        new["X"] = np.minimum(X, 0.0)
    else:
        pair = f[None, :] + g[:, None]
        X = 0.5 * (Y - pair)
        Z = 0.5 * (-Y - pair)
        np.fill_diagonal(X, 0.0)
        np.fill_diagonal(Z, 0.0)
        new["X"] = np.minimum(X, 0.0)
        new["Z"] = np.minimum(Z, 0.0)
    ok, max_eq, max_cone = canon.verify(new, settings)
    if not ok:
        return None
    return new, max_eq, max_cone


def reduce_rank(
    problem: SdpFeasibilityProblem,
    warm: SolveResult,
    settings: Optional[SolverSettings] = None,
) -> SolveResult:
    """Drive the main PSD block of a feasible dual toward rank one.

    First re-solves the feasibility set maximizing the pairing functional,
    which selects the extremal point whose dominant factor has the largest
    state weight (and in particular the branch where the factor reproduces
    the system dynamics).  If that point is not yet rank one, repeatedly
    re-solves minimizing the weight on the non-dominant eigenspace of the
    current iterate, then attempts an exact rank-1 rebuild.  A warm start
    that already meets the rank tolerance is returned unchanged, with zero
    rounds run.
    """
    settings = settings or SolverSettings()
    if warm.status != "feasible":
        raise StructuralError("rank reduction needs a feasible warm start")
    name = problem.meta.get("psd_main")
    if name is None:
        raise StructuralError("problem does not name a main PSD block")

    ratio0, _ = _rank_ratio(warm.assignment[name])
    trail = [ratio0]
    if ratio0 <= settings.tol_rank:
        warm.diagnostics.setdefault("rank_trail", trail)
        warm.diagnostics.setdefault("rounds", 0)
        warm.diagnostics.setdefault("polished", False)
        return warm

    canon = warm.canonical
    if canon is None or canon.problem is not problem:
        canon = _Canonical(problem)
    steer = problem.meta.get("steer")
    steer_term = None
    sn = 0.0
    if steer is not None:
        sn = float(np.linalg.norm(steer, "fro"))
        if sn > 0:
            steer_term = settings.steer_weight * steer / sn

    best_assign = warm.assignment
    best_eq, best_cone = warm.residuals.max_equality, warm.residuals.max_cone_violation
    best_ratio = ratio0
    hsl = dict((v.name, sl) for v, sl in canon.psd_vars)[name]
    ipm = IpmSettings(
        max_iters=settings.max_ipm_iters,
        tol_feas=settings.ipm_tol_feas,
        tol_gap=settings.ipm_tol_gap,
    )

    # On the trace-normalized rank-1 face the pairing functional equals the
    # squared state weight of the factor, so maximizing it both forces the
    # branch where the factor reproduces the system dynamics and picks the
    # extremal certificate with dominant state part.  Solving for that point
    # first typically lands (near) rank one before any deflation runs.
    steered = False
    if steer_term is not None:
        c = np.zeros(canon.ncone)
        c[hsl] = svec(-steer / sn)
        # solved at the high-accuracy tolerances: breakpoint data for the
        # destabilizing map is read straight off this point, and leftover
        # solver noise shows up as spurious slope defects
        ipm_steer = IpmSettings(
            max_iters=settings.max_ipm_iters,
            tol_feas=settings.margin_ipm_tol_feas,
            tol_gap=settings.margin_ipm_tol_gap,
        )
        res = solve_conic(canon.A, canon.b, c, canon.cone, ipm_steer)
        for _, assignment, ok, max_eq, max_cone in _candidates(canon, res.x, settings):
            if not ok:
                continue
            best_assign, best_eq, best_cone = assignment, max_eq, max_cone
            best_ratio, _ = _rank_ratio(assignment[name])
            trail.append(best_ratio)
            steered = True
            break

    rounds = 0
    for _ in range(settings.max_rank_rounds):
        if best_ratio <= settings.tol_rank:
            break
        Hc = best_assign[name]
        _, V = np.linalg.eigh(0.5 * (Hc + Hc.T))
        V2 = V[:, :-1]  # all but the dominant eigenvector
        W = V2 @ V2.T
        if steer_term is not None:
            W = W - steer_term
        c = np.zeros(canon.ncone)
        c[hsl] = svec(0.5 * (W + W.T))
        res = solve_conic(canon.A, canon.b, c, canon.cone, ipm)
        rounds += 1

        improved = False
        for _, assignment, ok, max_eq, max_cone in _candidates(canon, res.x, settings):
            if not ok:
                continue
            ratio, _ = _rank_ratio(assignment[name])
            if ratio < best_ratio:
                best_assign, best_eq, best_cone = assignment, max_eq, max_cone
                best_ratio = ratio
                improved = True
                break
        trail.append(best_ratio)
        if best_ratio <= settings.tol_rank or not improved:
            break

    polished = False
    pol = _rank_one_polish(problem, canon, best_assign, settings)
    if pol is not None:
        cand, max_eq, max_cone = pol
        ratio, _ = _rank_ratio(cand[name])
        if ratio <= max(best_ratio, settings.tol_rank):
            best_assign, best_eq, best_cone = cand, max_eq, max_cone
            best_ratio = ratio
            polished = True
            trail.append(best_ratio)

    diagnostics = dict(warm.diagnostics)
    diagnostics.update(
        {
            "rank_trail": trail,
            "rounds": rounds,
            "polished": polished,
            "steered": steered,
            "rank_ratio": best_ratio,
        }
    )
    return SolveResult(
        status="feasible",
        assignment=best_assign,
        residuals=Residuals(best_eq, best_cone),
        diagnostics=diagnostics,
        canonical=canon,
    )
