"""Feasibility engine: dense forms, verdicts, and rank reduction of the dual.

The primal LMI comes as its dense form (lmi.build_primal: decision
coordinates z, constraint rows F0 + F z in cones).  It goes to the
interior-point core as the dual side of its standard form,
max b.y s.t. c - A^T y in K with A = -F^T / d, c = F0 and y = d z, so the
Schur complement is indexed by the decision coordinates; from LMI
dimension n + m = _STRUCTURED_MIN_DIM on, its LMI term is built from the
congruence factors build_primal supplies (_LmiGram), for the primal and
the dual alike, and B = A W^T is never formed.  The solve stops
at the first iterate that certifies (its margin t, the raw constraints and
the achieved -lambda_max of the strict LMI all clear the threshold); an
infeasible primal runs to its optimum.

The dual LMI is the adjoint of the primal's homogeneous rows (F0 = 0).
build_dual restricts F to them and transposes it, giving A x = b, x in K,
with A = -F_h^T, b = e_t and rows equilibrated.  Its rows are the primal's decision coordinates (full row
rank, never empty), its coordinates the multipliers of those rows, read
as the blocks H, f, g, X (and Z) through lmi.DUAL_SCALE.  It is solved
once, however the primal ended: one homogeneous self-dual solve over its
feasible set, whose objective steers toward the branch the proof concludes
on, returns a point or a Farkas certificate y.  Read in the primal's coordinates, that
certificate is (P, M, t = 1) with F_h z in K, a strict primal solution;
infeasibility is only declared once it passes an independent check.
Either way the verdict rests on verifying the raw constraints, never on
solver status alone.  reduce_rank then deflates that point toward rank one.

Every threshold is a module constant: TOL_RANK decides "rank one" here
and in the detector, TOL_EQ bounds the dual's raw residual, PRIMAL_MARGIN
is the margin a certifying primal iterate must reach and CONE_TOL the cone
violation any returned assignment may carry.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .conic import ConeSpec, smat, solve_conic, svec, svec_dim
from .errors import StructuralError
from .lmi import (
    DUAL_SCALE,
    SdpFeasibilityProblem,
    _lmi_matrix,
    _matrix_entries,
    _offdiag_pairs,
    multiplier_matrix,
)
from .system import StateSpaceSystem

__all__ = [
    "DualForm",
    "Residuals",
    "SolveResult",
    "build_dual",
    "reduce_rank",
    "solve",
]


# Largest ratio of H's second eigenvalue to its first that counts as rank one.
TOL_RANK = 1.0e-6
# Bound on the largest entry of the dual's residual A x - b, in raw
# (unequilibrated) units, relative to 1 + max|b|.
TOL_EQ = 1.0e-8
# Margin from which a max-margin primal iterate counts as strictly feasible.
PRIMAL_MARGIN = 1.0e-7
# IPM stopping tolerance (feasibility and gap) of the deflation rounds, and
# of the margin and dual solves, whose points are read off directly.
_IPM_TOL = 1.0e-10
_MARGIN_IPM_TOL = 1.0e-11
# Absolute bound on cone violations of returned assignments.
CONE_TOL = 1.0e-9
# Largest cone violation of a b.y-normalized Farkas certificate.
_FARKAS_TOL = 1.0e-7
_MAX_RANK_ROUNDS = 10
# Weight of the steering term in each deflation objective.
_STEER_WEIGHT = 1.0e-3
# Smallest LMI dimension n + m at which the Schur complement's LMI term is
# built from the congruence structure (_LmiGram) rather than from B = A W^T;
# the measured crossover.
_STRUCTURED_MIN_DIM = 20


@dataclass(frozen=True)
class Residuals:
    """Raw constraint quality of the returned assignment."""

    max_equality: float
    max_cone_violation: float
    margin: Optional[float] = None


@dataclass
class SolveResult:
    """canonical is the problem's dense form: build_dual reads the primal's,
    reduce_rank reuses the dual's."""

    status: str  # "feasible" | "infeasible" | "numerical_limit"
    assignment: dict
    residuals: Residuals
    diagnostics: dict = field(default_factory=dict)
    canonical: Optional[Union["DualForm", "_Inequality"]] = field(default=None, repr=False)


def _from_coords(kind: str, coords: np.ndarray, dim: int) -> np.ndarray:
    """Value of a variable kind from its coordinates, batched over their
    leading axes."""
    if kind == "sym":
        return smat(coords, dim)
    if kind == "vector":
        return np.asarray(coords, dtype=float)
    rows, cols = _offdiag_pairs(dim)
    out = np.zeros(np.shape(coords)[:-1] + (dim, dim))
    out[..., rows, cols] = coords
    return out


def _scalarize(value, kind: str) -> np.ndarray:
    """Coordinates of a value, batched over its leading axes; the inverse
    of _from_coords."""
    value = np.asarray(value, dtype=float)
    if kind == "sym":
        return svec(0.5 * (value + np.swapaxes(value, -1, -2)))
    if kind == "hollow":
        rows, cols = _offdiag_pairs(value.shape[-1])
        return value[..., rows, cols]
    return np.atleast_1d(value)


def _cone_violation(con, coords: np.ndarray) -> float:
    """Worst violation of a constraint's cone by its rows, or by its
    multiplier, given in coordinates; >= 0."""
    if con.cone == "psd":
        return float(max(0.0, -np.linalg.eigvalsh(smat(coords, con.dim))[0]))
    return float(max(0.0, -np.min(coords))) if coords.size else 0.0


class _LmiGram:
    """The LMI block's term of the Schur complement, from the congruence
    factors of lmi.lmi_congruence, without forming B = A W^T.

    Row i of the IPM's A holds, on the LMI block, svec(X_i) / d_i up to a
    sign shared by all rows, X_i being the LMI's coefficient of decision
    coordinate i.  At the block's NT scaling G = R R^T the term is
    S[i, j] = tr(G X_i G X_j) / (d_i d_j).  A coordinate of a variable with
    terms is X_i = w_i sum_k s_k (U_l^T E U_r + U_r^T E^T U_l), E the unit
    matrix at (a, b) (_matrix_entries), so with H = U G U^T and H_xy its
    block at the rows of U_x and the columns of U_y^T

        tr(G X_i G X_j) = 2 w_i w_j sum_kl s_k s_l
                          (H_ll'[a, c] H_rr'[b, d] + H_lr'[a, d] H_rl'[b, c])

    for coordinate j at (c, d) with terms (l', r', s_l).  Variables with
    the same terms form a family; for each pair of families the two sums
    are Kronecker products of blocks of H, one small GEMM each into a
    buffer that precomputed flat indices read.  The identity variable's
    coefficient is I: tr(G X_i G) = 2 w_i sum_k s_k (U G^2 U^T)[r + b, l + a]
    and tr(G G) = ||G||_F^2.  Coordinates of other variables have zero rows.
    """

    def __init__(self, congruence: dict, var_slices, nrows: int):
        self.U = congruence["U"]
        self.identity = next(sl.start for v, sl in var_slices if v.name == congruence["identity"])
        # families: [terms, dim, coordinates, a, b, w]
        families, by_terms = [], {}
        for v, sl in var_slices:
            terms = congruence["terms"].get(v.name)
            if terms is None or sl.stop == sl.start:
                continue
            entries = (np.arange(sl.start, sl.stop),) + _matrix_entries(v)
            if terms in by_terms:
                fam = by_terms[terms]
                fam[2:] = [np.concatenate(pair) for pair in zip(fam[2:], entries)]
            else:
                by_terms[terms] = [terms, v.dim, *entries]
                families.append(by_terms[terms])
        self.families = families

        # for each pair of families f <= g, the direct and the crossed
        # product, each as the H blocks of its left and its right factors
        self.products, at = [], 0
        parts = [[], []]
        for f, (tf, df, cf, af, bf, _) in enumerate(families):
            for g, (tg, dg, cg, ag, bg, _) in enumerate(families[f:], f):
                size = df * dg
                for crossed in (False, True):
                    left, right = [], []
                    for l, r, s in tf:
                        for l2, r2, s2 in tg:
                            c, d = (r2, l2) if crossed else (l2, r2)
                            left.append((s * s2, slice(l, l + df), slice(c, c + dg)))
                            right.append((1.0, slice(r, r + df), slice(d, d + dg)))
                    self.products.append((at, size, left, right))
                    at += size * size
                # direct [(a, c), (b, d)] and crossed [(a, d), (b, c)]
                row = ((af * size + bf) * dg)[:, None]
                flats = (row + ag * size + bg, row + bg * size + ag + size * size)
                for part, flat in zip(parts, flats):
                    flat += at - 2 * size * size
                    if f == g:
                        # (i, j) and (j, i) read one slot: exactly symmetric
                        part.append((cf, cf, np.minimum(flat, flat.T)))
                    else:
                        part += [(cf, cg, flat), (cg, cf, flat.T)]
        # the last slot of the buffer is the zero of rows without terms
        self.index = []
        for part in parts:
            idx = np.full((nrows, nrows), at, dtype=np.intp)
            for rows, cols, flat in part:
                idx[np.ix_(rows, cols)] = flat
            self.index.append(idx)
        self.buffer = np.zeros(at + 1)
        self.weight = np.zeros(nrows)
        for fam in families:
            self.weight[fam[2]] = fam[5]

    def for_rows(self, d: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The term as a function of the scaling factor R, for rows
        equilibrated by d."""
        v = self.weight / d
        scale = 2.0 * np.outer(v, v)
        return lambda R: self._term(R, d, scale)

    def _term(self, R: np.ndarray, d: np.ndarray, scale: np.ndarray) -> np.ndarray:
        UR = self.U @ R
        H = UR @ UR.T
        buf = self.buffer
        for at, size, left, right in self.products:
            X, Y = _factor(H, left, size), _factor(H, right, size)
            np.matmul(X.T, Y, out=buf[at:at + size * size].reshape(size, size))
        S = np.take(buf, self.index[0])
        S += np.take(buf, self.index[1])
        S *= scale
        t = self.identity
        UG = UR @ R.T
        H2 = UG @ UG.T
        col = np.zeros(d.size)
        for terms, _, coords, a, b, w in self.families:
            col[coords] = 2.0 * w * sum(s * H2[r + b, l + a] for l, r, s in terms)
        col /= d * d[t]
        S[t, :] = col
        S[:, t] = col
        S[t, t] = np.sum((R.T @ R) ** 2) / d[t] ** 2
        return S


def _factor(H: np.ndarray, blocks: list, size: int) -> np.ndarray:
    """The weighted blocks s H[rows, cols] of a Kronecker sum flattened into
    the rows of one factor, padded with a zero row to at least two: numpy's
    product with an inner dimension of one is several times slower."""
    out = np.zeros((max(len(blocks), 2), size))
    for k, (s, rows, cols) in enumerate(blocks):
        block = H[rows, cols]
        np.multiply(block, s, out=out[k].reshape(block.shape))
    return out


def _lmi_gram(problem: SdpFeasibilityProblem, var_slices, nrows: int) -> Optional[_LmiGram]:
    """The one place the Schur complement's path is chosen: the structured
    LMI term once the LMI dimension n + m reaches _STRUCTURED_MIN_DIM, else
    None (B = A W^T is formed)."""
    congruence = problem.meta["congruence"]
    if congruence["U"].shape[1] < _STRUCTURED_MIN_DIM:
        return None
    return _LmiGram(congruence, var_slices, nrows)


def _cone_spec(psd_dims: list, total: int) -> ConeSpec:
    """PSD blocks of the given dimensions, then one orthant block for the rest."""
    lin_total = total - sum(svec_dim(k) for k in psd_dims)
    blocks = [("s", k) for k in psd_dims] + ([("l", lin_total)] if lin_total else [])
    return ConeSpec(blocks=tuple(blocks))


class _Inequality:
    """The primal's dense form as the IPM sees it.

    The IPM solves max b.y s.t. F0 - A^T y in K with A = -F^T / d and the
    objective b = objective / d, where d equilibrates the rows of A;
    z = y / d.  blocks holds (constraint, row slice) for each constraint,
    PSD ones first.
    """

    def __init__(self, problem: SdpFeasibilityProblem):
        self.problem = problem
        self.var_slices, self.blocks = problem.variables, problem.constraints
        self.F0, self.F, self.objective = problem.F0, problem.F, problem.objective
        psd_dims = [con.dim for con, _ in self.blocks if con.cone == "psd"]
        self.cone = _cone_spec(psd_dims, self.F0.size)

        d = np.maximum(np.linalg.norm(self.F, axis=0), np.abs(self.objective))
        self.d = np.maximum(d, 1.0e-12)
        self.A = -self.F.T / self.d[:, None]
        self.b = self.objective / self.d
        self.gram = _lmi_gram(problem, self.var_slices, self.objective.size)
        self.psd_schur = None if self.gram is None else self.gram.for_rows(self.d)

    def reconstruct(self, z: np.ndarray) -> dict:
        """Assignment from decision coordinates; a variable without
        coordinates (hollow at dimension 1) is zero."""
        return {v.name: _from_coords(v.kind, z[sl], v.dim) for v, sl in self.var_slices}

    def verify(self, z: np.ndarray):
        """Worst cone violation of the constraint rows F0 + F z; there are
        no equality rows, so that residual is 0."""
        rows = self.F0 + self.F @ z
        max_cone = max(
            (_cone_violation(con, rows[sl]) for con, sl in self.blocks),
            default=0.0,
        )
        return max_cone <= CONE_TOL, 0.0, max_cone


class DualForm:
    """The dual LMI in equality form, the adjoint of a primal's dense form.

    Coordinates x are the multipliers of the primal's constraints with
    F0 = 0, in the primal's order (PSD first); blocks holds (constraint,
    slice) for each.  Rows are the primal's decision coordinates:
    A_raw x = b_raw with A_raw = -F_h^T and b_raw = e_t, the primal
    objective.  A and b are the rows equilibrated by d, which the
    IPM sees; verify measures residuals in the raw units.
    """

    def __init__(self, primal: _Inequality):
        self.primal = primal
        self.system: StateSpaceSystem = primal.problem.meta["system"]
        self.blocks, rows, at = [], [], 0
        for con, sl in primal.blocks:
            if np.any(primal.F0[sl]):
                continue
            if con.dual is None:
                raise StructuralError(f"homogeneous constraint {con.name!r} names no dual block")
            self.blocks.append((con, slice(at, at + sl.stop - sl.start)))
            rows.append(np.arange(sl.start, sl.stop))
            at += sl.stop - sl.start
        self.ncone = at
        self.cone = _cone_spec([con.dim for con, _ in self.blocks if con.cone == "psd"], at)
        self.h_slice = next(sl for con, sl in self.blocks if con.dual == "H")

        self.A_raw = -primal.F[np.concatenate(rows)].T
        self.b_raw = primal.objective
        d = np.maximum(np.linalg.norm(self.A_raw, axis=1), np.abs(self.b_raw))
        self.d = np.maximum(d, 1.0e-12)
        self.A = self.A_raw / self.d[:, None]
        self.b = self.b_raw / self.d
        self.psd_schur = None if primal.gram is None else primal.gram.for_rows(self.d)

    def reconstruct(self, x: np.ndarray) -> dict:
        """The dual blocks H, f, g, X (Z) from multiplier coordinates."""
        return {
            con.dual: DUAL_SCALE[con.cone] * _from_coords(con.kind, x[sl], con.dim).T
            for con, sl in self.blocks
        }

    def verify(self, assignment: dict):
        """Raw adjoint residual and cone violation of the dual blocks.

        The cone violation is measured on H, f, g, -X and -Z, in the units
        of the blocks, not of the multipliers.
        """
        parts, max_cone = [], 0.0
        for con, _ in self.blocks:
            scale = DUAL_SCALE[con.cone]
            multiplier = np.asarray(assignment[con.dual], dtype=float).T / scale
            parts.append(_scalarize(multiplier, con.kind))
            max_cone = max(max_cone, _cone_violation(con, abs(scale) * parts[-1]))
        max_eq = float(np.max(np.abs(self.A_raw @ np.concatenate(parts) - self.b_raw)))
        tol_eq = TOL_EQ * (1.0 + float(np.max(np.abs(self.b_raw))))
        return max_eq <= tol_eq and max_cone <= CONE_TOL, max_eq, max_cone


def build_dual(primal: SolveResult) -> DualForm:
    """The dual LMI of a solved primal, transposed from its dense form."""
    if not isinstance(primal.canonical, _Inequality):
        raise StructuralError("build_dual needs the result of a primal solve")
    return DualForm(primal.canonical)


def _farkas_quality(dual: DualForm, y: np.ndarray):
    """(b.y-normalized certificate violation, or None if no certificate)."""
    by = float(dual.b @ y)
    if by <= 0.0:
        return None
    xi = -(dual.A.T @ (y / by))
    return max(
        (_cone_violation(con, xi[sl]) for con, sl in dual.blocks),
        default=0.0,
    )


def _primal_true_margin(problem: SdpFeasibilityProblem, assignment: dict) -> float:
    """Achieved margin -lambda_max of the strict LMI at this assignment,
    from L(P, M) read off the congruence, not from F."""
    P, M = assignment["P"], multiplier_matrix(assignment)
    core = _lmi_matrix(problem.meta["congruence"], P, M)
    w = np.linalg.eigvalsh(0.5 * (core + core.T))
    return -float(w[-1])


def _solve_inequality(problem, form: _Inequality) -> SolveResult:
    """Maximize the margin t of the primal LMI until an iterate certifies.

    An iterate z certifies when t = objective.z, the worst raw cone
    violation and the achieved margin -lambda_max(L(P, M)) all pass; the
    IPM stops at the first one ("accepted") and the same test decides
    "feasible" afterwards, from the values computed once for the returned
    iterate.  The reported margin of a feasible result is therefore the
    achieved -lambda_max(L) of the returned certificate, a lower bound on
    the optimum min(t*, 1), not the optimum itself.  No iterate of an
    infeasible primal passes the test on t, so it runs to its optimum t* = 0.
    """
    accepted = []  # (assignment, verify's result, achieved margin) of the iterate accepted

    def certifies(y: np.ndarray) -> bool:
        z = y / form.d
        if form.objective @ z < PRIMAL_MARGIN:
            return False
        checked = form.verify(z)
        if not checked[0]:
            return False
        assignment = form.reconstruct(z)
        true_margin = _primal_true_margin(problem, assignment)
        if true_margin < PRIMAL_MARGIN:
            return False
        accepted.append((assignment, checked, true_margin))
        return True

    res = solve_conic(
        form.A, form.b, form.F0, form.cone, _MARGIN_IPM_TOL,
        accept=certifies, psd_schur=form.psd_schur,
    )
    z = res.y / form.d
    t_hat = float(form.objective @ z)
    if res.status == "accepted":
        # res.y is the iterate certifies passed, bit for bit
        assignment, (ok, max_eq, max_cone), true_margin = accepted[-1]
    else:
        assignment = form.reconstruct(z)
        ok, max_eq, max_cone = form.verify(z)
        true_margin = _primal_true_margin(problem, assignment)

    if t_hat >= PRIMAL_MARGIN and ok and true_margin >= PRIMAL_MARGIN:
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
        diagnostics={"ipm_status": res.status, "ipm_iterations": res.iterations},
    )


def _steer_matrix(sys: StateSpaceSystem) -> np.ndarray:
    """Linear functional whose value on rank-1 H is h1^T (A h1 + B h2),
    normalized to unit Frobenius norm (zero if it vanishes).

    trace(S H) with S = sym([I 0]^T [A B]) equals the proof's branch
    discriminant on rank-1 iterates.  On the trace-normalized rank-1 face
    it is also the squared state weight of the factor, so maximizing it
    both forces the branch where the factor reproduces the system dynamics
    and picks the extremal point with dominant state part; the deflation
    rounds keep it as a small tie-break.
    """
    n, m = sys.n, sys.m
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    S = I0.T @ AB
    S = 0.5 * (S + S.T)
    norm = float(np.linalg.norm(S, "fro"))
    return S / norm if norm > 0 else S


def _solve_dual(dual: DualForm) -> SolveResult:
    """One solve over the dual's feasible set, maximizing the steer
    functional on H (zero objective if it vanishes): a verified point,
    else a certificate.

    The point is solved at the high-accuracy tolerance: breakpoint data for
    the destabilizing map is read straight off it, and leftover solver
    noise shows up as spurious slope defects.  A certificate that passes
    _farkas_quality is returned in the diagnostics, read in the primal's
    coordinates: (P, M, t = 1).
    """
    c = np.zeros(dual.ncone)
    c[dual.h_slice] = svec(-_steer_matrix(dual.system))
    res = solve_conic(dual.A, dual.b, c, dual.cone, _MARGIN_IPM_TOL, psd_schur=dual.psd_schur)
    diagnostics = {"ipm_status": res.status, "ipm_iterations": res.iterations}
    assignment = dual.reconstruct(res.x)
    ok, max_eq, max_cone = dual.verify(assignment)
    status = "feasible"
    if not ok:
        # no verified point: the Farkas certificate is checked independently
        q = _farkas_quality(dual, res.y)
        diagnostics["farkas_quality"] = q
        status = "numerical_limit"
        if q is not None and q <= _FARKAS_TOL:
            status = "infeasible"
            diagnostics["certificate"] = dual.primal.reconstruct(
                res.y / float(dual.b @ res.y) / dual.d
            )
    return SolveResult(
        status=status,
        assignment=assignment,
        residuals=Residuals(max_eq, max_cone),
        diagnostics=diagnostics,
    )


def solve(problem: Union[SdpFeasibilityProblem, DualForm]) -> SolveResult:
    """Decide the problem and return a verified assignment or certificate.

    The primal is the max-margin problem: the verdict is "feasible" when
    the returned assignment itself achieves the margin threshold,
    "infeasible" when a converged optimum stays below it.  The dual is
    one steer solve over its feasible set; "infeasible" requires a
    Farkas certificate that passes _farkas_quality.  Anything undecided
    comes back "numerical_limit".
    """
    if isinstance(problem, DualForm):
        result = _solve_dual(problem)
        result.canonical = problem
    else:
        form = _Inequality(problem)
        result = _solve_inequality(problem, form)
        result.canonical = form
    return result


def _rank_ratio(H: np.ndarray):
    """H's second eigenvalue over its first (at least 0), and its
    eigenvectors in ascending order of eigenvalue, from one eigh."""
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    lead = max(float(w[-1]), 1.0e-300)
    ratio = float(w[-2]) / lead if w.size > 1 else 0.0
    return max(ratio, 0.0), V


def reduce_rank(dual: DualForm, warm: SolveResult) -> SolveResult:
    """Drive H, the PSD block of a feasible dual point, toward rank one.

    warm is the point of the steer solve.  While the current point is
    not rank one, re-solves minimizing the weight on its non-dominant
    eigenspace, less a small steer term, and keeps a round's point only
    if it lowers the rank ratio.  Every point is verified against the raw
    constraints and kept as the solver returned it.  rank_trail starts at
    the ratio of the warm point; a warm point that already meets the rank
    tolerance comes back with its assignment unchanged, with zero rounds
    run.
    """
    if warm.status != "feasible":
        raise StructuralError("rank reduction needs a feasible warm start")
    steer_term = _STEER_WEIGHT * _steer_matrix(dual.system)

    best_assign = warm.assignment
    best_eq, best_cone = warm.residuals.max_equality, warm.residuals.max_cone_violation
    best_ratio, best_V = _rank_ratio(best_assign["H"])
    trail = [best_ratio]

    rounds = 0
    for _ in range(_MAX_RANK_ROUNDS):
        if best_ratio <= TOL_RANK:
            break
        V2 = best_V[:, :-1]  # all but the dominant eigenvector
        W = V2 @ V2.T - steer_term
        c = np.zeros(dual.ncone)
        c[dual.h_slice] = svec(0.5 * (W + W.T))
        res = solve_conic(dual.A, dual.b, c, dual.cone, _IPM_TOL, psd_schur=dual.psd_schur)
        rounds += 1

        assignment = dual.reconstruct(res.x)
        ok, max_eq, max_cone = dual.verify(assignment)
        ratio, V = _rank_ratio(assignment["H"]) if ok else (best_ratio, None)
        improved = ratio < best_ratio
        if improved:
            best_assign, best_eq, best_cone = assignment, max_eq, max_cone
            best_ratio, best_V = ratio, V
        trail.append(best_ratio)
        if best_ratio <= TOL_RANK or not improved:
            break

    diagnostics = dict(warm.diagnostics)
    diagnostics.update(
        {
            "rank_trail": trail,
            "rounds": rounds,
            "rank_ratio": best_ratio,
        }
    )
    return SolveResult(
        status="feasible",
        assignment=best_assign,
        residuals=Residuals(best_eq, best_cone),
        diagnostics=diagnostics,
        canonical=dual,
    )
