"""Feasibility engine: one conic form for both LMIs, verdicts, and the one
pass over the dual.

The primal LMI comes as lmi.build_primal writes it (decision coordinates
z, homogeneous constraint rows F z in cones, the LMI's given by its
congruence).  build_dual transposes it once into the interior-point
core's standard pair

    min c.x  s.t.  A x = b, x in K     and     max b.y  s.t.  c - A^T y in K,

with A = -F^T / d, b = e_t / d (the primal objective) and d the row
equilibration (DualForm).  Its y side is the primal at c = 0, with
y = d z, so the Schur complement is indexed by the decision coordinates;
its x side is the dual LMI, the Farkas alternative of the primal, whose
coordinates are the multipliers of the primal's rows, read as the blocks
H, f, g, X (and Z) through lmi.DUAL_SCALE.  The LMI block's rows have one
writer, _LmiGram, which takes them through the congruence factors
build_primal supplies: their norms, and so d, at every size.  Below LMI
dimension n + m = _STRUCTURED_MIN_DIM it forms them once into the IPM's
A; from it on they are never formed, and _LmiGram gives the Schur term
and every product with A or B = A W^T.

By the theorem of alternatives either side is infeasible exactly when the
other has a point, so every run is judged by two checks, one per side.  A
y side certifies when the achieved margin -lambda_max(L(P, M)) at
z = y / d, M moved onto its cone, reaches PRIMAL_MARGIN
(_primal_true_margin); an x side is a dual point when DualForm.verify
passes on the solver's own coordinates.  solve reads the primal off the y
side and stops at the first iterate that certifies, whatever its margin
t: that makes it "feasible".  An infeasible primal runs to its optimum
t* = 0, and is "infeasible" only where the run's x verifies.
reduce_rank makes the one pass over the x side: a steer solve over the
dual's feasible set, whose objective steers toward the branch the proof
concludes on, returns a point or a Farkas certificate y.  Read in the
primal's coordinates, z = y / (b.y) / d, that certificate is (P, M, t = 1),
and infeasibility is only declared once its margin certifies.
The caller says whether a verified point that is not rank one is deflated
toward rank one (analyze does so only where it knows no equilibrium
input), and the pass returns H's rank-one factor, or None where H is not
rank one: this is the one place "rank one" is decided.  Either way the
verdict rests on one of the two checks, never on solver status alone.

Every threshold is a module constant: TOL_RANK decides "rank one", TOL_EQ
bounds the dual's raw residual, PRIMAL_MARGIN is the margin a certifying
y must reach and CONE_TOL the cone violation a dual point may carry.
Every solve, primal, steer or deflation round, stops at the
interior-point core's one tolerance, conic.IPM_TOL.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .conic import ConeSpec, smat, solve_conic, svec
from .errors import NumericFailureError
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
# Absolute bound on the cone violation of a dual point.
CONE_TOL = 1.0e-9
_MAX_RANK_ROUNDS = 10
# Smallest LMI dimension n + m at which the Schur complement's LMI term is
# built from the congruence structure (_LmiGram) rather than from B = A W^T;
# the measured crossover.
_STRUCTURED_MIN_DIM = 20


@dataclass(frozen=True)
class Residuals:
    """Raw adjoint residual and cone violation of a dual point
    (DualForm.verify)."""

    max_equality: float
    max_cone_violation: float


@dataclass
class SolveResult:
    """The verdict of solve on the primal or of reduce_rank on the dual and
    the assignment it rests on.  margin is the achieved margin of a y side,
    the primal's iterate or a Farkas certificate of the dual (None where
    there is none); residuals are those of reduce_rank's dual point (None
    for solve), and factor is h with H = h h^T where H is rank one, else
    None."""

    status: str  # "feasible" | "infeasible" | "numerical_limit"
    assignment: dict
    residuals: Optional[Residuals] = None
    diagnostics: dict = field(default_factory=dict)
    factor: Optional[np.ndarray] = None
    margin: Optional[float] = None


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


def _reconstruct(var_slices, z: np.ndarray) -> dict:
    """Assignment from decision coordinates; a variable without
    coordinates (hollow at dimension 1) is zero."""
    return {v.name: _from_coords(v.kind, z[sl], v.dim) for v, sl in var_slices}


def _cone_violation(con, coords: np.ndarray) -> float:
    """Worst violation of a constraint's cone by its multiplier, given in
    coordinates; >= 0."""
    if con.cone == "psd":
        return float(max(0.0, -np.linalg.eigvalsh(smat(coords, con.dim))[0]))
    return float(max(0.0, -np.min(coords))) if coords.size else 0.0


class _Family(NamedTuple):
    """Adjacent variables with one set of LMI terms: their coordinates,
    and each coordinate's entry (a, b) and weight w (_matrix_entries)."""

    terms: tuple
    dim: int
    coords: slice
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray


def _families(congruence: dict, var_slices) -> list:
    """The variables with terms and coordinates, in order, each merged into
    the family before it where that has its terms and ends where it starts
    (M_diag and M_offdiag share M's)."""
    families = []
    for v, sl in var_slices:
        terms = congruence["terms"].get(v.name)
        if terms is None or sl.stop == sl.start:
            continue
        entries = _matrix_entries(v)
        if families and families[-1].terms == terms and families[-1].coords.stop == sl.start:
            last = families.pop()
            entries = [np.concatenate(pair) for pair in zip(last[3:], entries)]
            sl = slice(last.coords.start, sl.stop)
        families.append(_Family(terms, v.dim, sl, *entries))
    return families


class _LmiGram:
    """The LMI block's rows of the IPM's A, equilibrated by d, through the
    congruence factors of lmi.lmi_congruence: their one writer.  From the
    crossover on it is the rows object conic.solve_conic takes as
    psd_rows, and neither A nor B = A W^T is formed; below it, formed
    writes the block into A.

    Row i of the IPM's A holds, on the LMI block, svec(X_i) / d_i, X_i
    being the LMI's coefficient of decision coordinate i.  At the block's
    NT scaling G = R R^T the Schur term is
    S[i, j] = tr(G X_i G X_j) / (d_i d_j).  A coordinate of a variable with
    terms is X_i = w_i sum_k s_k (U_l^T E U_r + U_r^T E^T U_l), E the unit
    matrix at (a, b) (_matrix_entries), so with H = U G U^T and H_xy its
    block at the rows of U_x and the columns of U_y^T

        tr(G X_i G X_j) = 2 w_i w_j sum_kl s_k s_l
                          (H_ll'[a, c] H_rr'[b, d] + H_lr'[a, d] H_rl'[b, c])

    for coordinate j at (c, d) with terms (l', r', s_l).  Variables with
    the same terms form a family (_families).  S is defined by its lower
    triangle, and term writes it once per step, into the IPM run's buffer.
    For each pair of families f <= g one batched product gives both sums
    for every coordinate i of f at every (c, d) of g's dimension, and one
    take of the columns at g's coordinates gives the block, scaled by
    sqrt 2 w / d on both sides; a diagonal block is written as it is, and
    the block of (g, f) below it as the transpose of (f, g)'s.  The
    identity variable's coefficient is I:
    tr(G X_i G) = 2 w_i sum_k s_k (U G^2 U^T)[r + b, l + a] and
    tr(G G) = ||G||_F^2.  Coordinates of other variables have zero rows.

    d is read off the same formula at G = I: ||X_i||_F^2 is its diagonal,
    at H = U U^T, and n + m for the identity; with rest_sq, the squared
    norm of each raw row outside the LMI block, and the raw right-hand
    side b_raw, d_i = max(||row i||, |b_raw_i|, 1e-12): DualForm's d.

    The products read the same entries.  At a scaling factor R (I for A
    itself) and for symmetric V, with H = (U R) V (U R)^T,

        <X_i, R V R^T> = 2 w_i sum_k s_k H[l + a, r + b],

    and the identity's coordinate reads <R^T R, V>; the adjoint
    R^T (sum_i y_i X_i / d_i) R is sum_k s_k (T_lr + T_lr^T) with
    T_lr = (U_l R)^T Z (U_r R), Z holding w_i y_i / d_i at each
    coordinate's (a, b), plus y_t / d_t R^T R.
    """

    def __init__(self, congruence: dict, var_slices, rest_sq: np.ndarray, b_raw: np.ndarray):
        self.U = U = congruence["U"]
        self.identity = next(sl.start for v, sl in var_slices if v.name == congruence["identity"])
        self.families = families = _families(congruence, var_slices)
        # the coordinates of the other variables, whose rows are zero
        self.zero_rows = [sl for v, sl in var_slices
                          if v.name not in congruence["terms"] and v.name != congruence["identity"]]

        # ||X_i||_F^2 at H = U U^T, and the rows' scaling d
        H = U @ U.T
        sq = np.array(rest_sq, dtype=float)
        for fam in families:
            # every pair of terms at once: [term, term', coordinate]
            l, r, s = (np.array(x) for x in zip(*fam.terms))
            la, rb = l[:, None] + fam.a, r[:, None] + fam.b
            pairs = H[la[:, None], la] * H[rb[:, None], rb] + H[la[:, None], rb] * H[rb[:, None], la]
            sq[fam.coords] += 2.0 * fam.w * fam.w * np.einsum("k,j,kjc->c", s, s, pairs)
        sq[self.identity] += U.shape[1]
        self.d = np.maximum(np.maximum(np.sqrt(sq), np.abs(b_raw)), 1.0e-12)

        # each coordinate's entries of U V U^T and of the matrix the
        # adjoint's congruence reads, one (coordinates, flat, w s) per term
        k = U.shape[0]
        self.entries = [
            (fam.coords, (l + fam.a) * k + r + fam.b, fam.w * s)
            for fam in families
            for l, r, s in fam.terms
        ]

    def term(self, R: np.ndarray, S: np.ndarray):
        """Write the block's Schur term at the scaling factor R into the
        lower triangle of S; its strict upper triangle is left as it is."""
        d = self.d
        UR = self.U @ R
        H = UR @ UR.T
        families = self.families
        # each family's coordinates scale their rows and columns by sqrt 2 w / d:
        # the rows through the left factor, the columns after the take
        scale = [np.sqrt(2.0) * fam.w / d[fam.coords] for fam in families]
        for f, ff in enumerate(families):
            # each term's rows of H at l + a and r + b, [i, 0 or 1, :]
            rows = [(s, H[np.stack((l + ff.a, r + ff.b), axis=1)]) for l, r, s in ff.terms]
            sf = scale[f][:, None]
            for g, gg in enumerate(families[f:], f):
                # both sums for every coordinate i of f at every (c, d) of
                # g's dimension, [i, c, d], in one batched product: the
                # direct s s' H[l + a, l' + c] H[r + b, r' + d] of every
                # pair of terms, then the crossed s s' H[r + b, l' + c]
                # H[l + a, r' + d]
                left, right = [], []
                for x, y in ((0, 1), (1, 0)):
                    for s, hr in rows:
                        for l2, r2, s2 in gg.terms:
                            left.append(((s * s2) * sf) * hr[:, x, l2:l2 + gg.dim])
                            right.append(hr[:, y, r2:r2 + gg.dim])
                sums = np.matmul(np.stack(left, axis=2), np.stack(right, axis=1))
                # coordinate j of g reads its (c, d); the block of (g, f) in
                # the lower triangle is the transpose of (f, g)'s
                block = sums.reshape(len(ff.a), -1).take(gg.a * gg.dim + gg.b, axis=1)
                block *= scale[g]
                if f == g:
                    S[ff.coords, ff.coords] = block
                else:
                    S[gg.coords, ff.coords] = block.T
        for sl in self.zero_rows:
            S[sl, :sl.stop] = 0.0
            S[sl.stop:, sl] = 0.0
        t = self.identity
        UG = UR @ R.T
        H2 = UG @ UG.T
        col = np.zeros(d.size)
        for fam in self.families:
            col[fam.coords] = 2.0 * fam.w * sum(s * H2[r + fam.b, l + fam.a] for l, r, s in fam.terms)
        col /= d * d[t]
        S[t, :t] = col[:t]
        S[t:, t] = col[t:]
        S[t, t] = np.sum((R.T @ R) ** 2) / d[t] ** 2

    def formed(self) -> np.ndarray:
        """The LMI block of the IPM's A, formed: row i is svec(X_i) / d_i,
        each of the coordinate's entries giving X_i its
        w s U[l + a]^T U[r + b] and that product's transpose."""
        U, k = self.U, self.U.shape[0]
        X = np.zeros((self.d.size,) + (U.shape[1],) * 2)
        for coords, flat, ws in self.entries:
            X[coords] += ws[:, None, None] * U[flat // k, :, None] * U[flat % k, None, :]
        X += np.swapaxes(X, 1, 2)
        X[self.identity] = np.eye(U.shape[1])
        return svec(X) / self.d[:, None]

    def _factors(self, R: Optional[np.ndarray]):
        """(U R, R^T R), with R = I for None."""
        U = self.U
        if R is None:
            return U, np.eye(U.shape[1])
        return U @ R, R.T @ R

    def apply(self, V: np.ndarray, R: Optional[np.ndarray] = None) -> np.ndarray:
        """A_p svec(R V R^T), batched over the leading axes of V."""
        UR, RtR = self._factors(R)
        H = np.matmul(UR @ V, UR.T)
        H = H.reshape(H.shape[:-2] + (-1,))
        out = np.zeros(H.shape[:-1] + (self.d.size,))
        for coords, flat, ws in self.entries:
            out[..., coords] += (2.0 * ws) * H[..., flat]
        out[..., self.identity] = np.sum(RtR * V, axis=(-2, -1))
        out /= self.d
        return out

    def adjoint(self, y: np.ndarray, R: Optional[np.ndarray] = None) -> np.ndarray:
        """R^T smat(A_p^T y) R, batched over the leading axes of y."""
        UR, RtR = self._factors(R)
        c = y / self.d
        k = UR.shape[0]
        Z = np.zeros(c.shape[:-1] + (k * k,))
        for coords, flat, ws in self.entries:
            Z[..., flat] += ws * c[..., coords]
        T = np.matmul(UR.T @ Z.reshape(c.shape[:-1] + (k, k)), UR)
        T += np.swapaxes(T, -1, -2)
        T += c[..., self.identity, None, None] * RtR
        return T


class DualForm:
    """Both LMIs as the interior-point core's one standard pair, transposed
    from the primal.

    Rows are the primal's decision coordinates (var_slices), coordinates x
    the multipliers of its constraints, in its order (the LMI's first);
    blocks holds (constraint, slice) for each.  The raw pair is -F^T and
    b_raw = e_t, the primal objective; A and b, which the IPM sees, are its
    rows scaled by 1 / d, d_i = max(||row i||, |b_raw_i|, 1e-12).  Its y
    side is the primal, z = y / d (solve); its x side is the dual LMI
    -F^T x = b_raw, x in K (reduce_rank).

    F's LMI rows come from one writer, gram (_LmiGram), which also gives d;
    A_raw is the orthant's raw columns, -F_incidence^T, at every size.
    This is the one place the Schur complement's path is chosen.  Below
    LMI dimension _STRUCTURED_MIN_DIM the IPM's A is formed, the gram's
    LMI block (_LmiGram.formed) beside A_raw / d, and psd_rows is None.
    From it on the LMI's rows are never formed: psd_rows is the gram, and
    A holds only A_raw / d.  verify measures residuals in raw units,
    through the gram and A_raw, on either path.  A plant so badly scaled
    that a row norm overflows has no finite d and raises NumericFailureError.
    """

    def __init__(self, primal: SdpFeasibilityProblem):
        self.system: StateSpaceSystem = primal.meta["system"]
        self.congruence = primal.meta["congruence"]
        self.var_slices, self.blocks = primal.variables, primal.constraints
        # the LMI block, then one orthant (m >= 1 row sums) for the rest
        lmi, h = self.blocks[0]
        self.cone = ConeSpec(lmi.dim, self.blocks[-1][1].stop - h.stop)

        self.b_raw, self.A_raw = primal.objective, -primal.F_incidence.T
        with np.errstate(over="ignore", invalid="ignore"):
            self.gram = _LmiGram(self.congruence, self.var_slices,
                                 np.sum(self.A_raw * self.A_raw, axis=1), self.b_raw)
        self.d = self.gram.d
        if not np.isfinite(self.d).all():
            raise NumericFailureError("the LMI's row norms overflow: the plant is too badly scaled")
        self.A, self.b = self.A_raw / self.d[:, None], self.b_raw / self.d
        if lmi.dim >= _STRUCTURED_MIN_DIM:
            self.psd_rows = self.gram
        else:
            self.psd_rows = None
            # column-major, as the IPM reads A's PSD and orthant columns
            self.A = np.asfortranarray(np.hstack([self.gram.formed(), self.A]))

    def reconstruct(self, x: np.ndarray) -> dict:
        """The dual blocks H, f, g, X (Z) from multiplier coordinates."""
        return {
            con.dual: DUAL_SCALE[con.cone] * _from_coords(con.kind, x[sl], con.dim).T
            for con, sl in self.blocks
        }

    def verify(self, x: np.ndarray):
        """(ok, max_eq, max_cone): the raw adjoint residual and the cone
        violation of the dual point x, in the solver's coordinates.

        The cone violation is measured on H, f, g, -X and -Z, in the units
        of the blocks, not of the multipliers.
        """
        max_cone = max(_cone_violation(con, abs(DUAL_SCALE[con.cone]) * x[sl])
                       for con, sl in self.blocks)
        lmi = self.gram.apply(smat(x[self.cone.psd], self.cone.d))
        rows = self.d * lmi + self.A_raw @ x[self.cone.orthant]
        max_eq = float(np.max(np.abs(rows - self.b_raw)))
        tol_eq = TOL_EQ * (1.0 + float(np.max(np.abs(self.b_raw))))
        return max_eq <= tol_eq and max_cone <= CONE_TOL, max_eq, max_cone


def build_dual(problem: SdpFeasibilityProblem) -> DualForm:
    """The one conic form of the primal and its dual LMI, transposed from
    the primal."""
    return DualForm(problem)


def _primal_true_margin(form: DualForm, z: np.ndarray) -> float:
    """Achieved margin -lambda_max of the strict LMI at the decision
    coordinates z, from L(P, M) read off the congruence, not from F, with
    M on its cone.  Only the variables L reads are taken off z."""
    terms = form.congruence["terms"]
    values = {v.name: _from_coords(v.kind, z[sl], v.dim)
              for v, sl in form.var_slices if v.name in terms}
    M = multiplier_matrix(values, form.system.nl_class)
    # L is exactly symmetric
    return -float(np.linalg.eigvalsh(_lmi_matrix(form.congruence, values["P"], M))[-1])


def solve(form: DualForm) -> SolveResult:
    """Maximize the margin t of the primal LMI, the y side of the form at
    c = 0, until an iterate certifies.

    An iterate z = y / d certifies when the achieved margin
    -lambda_max(L(P, M)), read at M moved onto its cone, reaches
    PRIMAL_MARGIN: that is the certificate's whole validity (P > 0 follows
    from A being Schur), so neither t nor the IPM's raw rows (the
    t-shifted LMI block and M's cone rows) gate it.  The IPM tests this
    before anything else and stops at the first iterate that passes
    ("accepted"), which is then "feasible".  An infeasible primal has no
    iterate that passes, so it runs to its optimum t* = 0; it is
    "infeasible" when the run's x side, the dual LMI, holds a point that
    DualForm.verify accepts, and "numerical_limit" otherwise.  The margin
    is the achieved -lambda_max(L) at the returned z on every status, the
    accepted iterate's as the accept test measured it: not an optimum,
    since the rows are homogeneous and a feasible primal's margin is
    unbounded.
    """
    accepted = []  # the achieved margin of the iterate accepted

    def certifies(y: np.ndarray) -> bool:
        if not y.any():
            return False  # the IPM's starting point: L(0, 0) = 0
        margin = _primal_true_margin(form, y / form.d)
        if not margin >= PRIMAL_MARGIN:
            return False
        accepted.append(margin)
        return True

    res = solve_conic(form.A, form.b, np.zeros(form.cone.total_len), form.cone,
                      accept=certifies, psd_rows=form.psd_rows)
    # for "accepted", res.y is the iterate certifies passed, bit for bit
    z = res.y / form.d
    if res.status == "accepted":
        status, margin = "feasible", accepted[-1]
    else:
        status = "infeasible" if form.verify(res.x)[0] else "numerical_limit"
        margin = _primal_true_margin(form, z)
    return SolveResult(
        status, _reconstruct(form.var_slices, z), margin=margin,
        diagnostics={"ipm_status": res.status, "ipm_iterations": res.iterations},
    )


def _steer_matrix(sys: StateSpaceSystem) -> np.ndarray:
    """Linear functional whose value on rank-1 H is h1^T (A h1 + B h2),
    normalized to unit Frobenius norm (zero if it vanishes).

    trace(S H) with S = sym([I 0]^T [A B]) equals the proof's branch
    discriminant on rank-1 iterates.  On the trace-normalized rank-1 face
    it is also the squared state weight of the factor, so maximizing it
    both forces the branch where the factor reproduces the system dynamics
    and picks the extremal point with dominant state part.
    """
    n, m = sys.n, sys.m
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    S = I0.T @ AB
    S = 0.5 * (S + S.T)
    norm = float(np.linalg.norm(S, "fro"))
    return S / norm if norm > 0 else S


def _solve_point(dual: DualForm, W: np.ndarray):
    """One solve over the dual's feasible set minimizing trace(W H): the
    solver's result, the blocks of its point and their verification."""
    c = np.zeros(dual.cone.total_len)
    c[dual.cone.psd] = svec(W)
    res = solve_conic(dual.A, dual.b, c, dual.cone, psd_rows=dual.psd_rows)
    return res, dual.reconstruct(res.x), dual.verify(res.x)


def _rank_ratio(H: np.ndarray):
    """(ratio, V, h) from one eigh: H's second eigenvalue over its first
    (at least 0), its eigenvectors in ascending order of eigenvalue, and,
    where the ratio is within TOL_RANK, H's rank-one factor h, the dominant
    eigenvector scaled by the root of its eigenvalue (else None)."""
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    lead = max(float(w[-1]), 1.0e-300)
    ratio = max(float(w[-2]) / lead, 0.0)
    return ratio, V, V[:, -1] * np.sqrt(lead) if ratio <= TOL_RANK else None


def reduce_rank(dual: DualForm, deflate: bool) -> SolveResult:
    """Solve the dual; where H, the PSD block of its point, is not rank
    one, drive it toward rank one if deflate is set.  A feasible result
    carries H's rank-one factor (SolveResult.factor), or None.

    The steer solve maximizes the steer functional on H over the dual's
    feasible set.  Breakpoint data for the destabilizing map is read
    straight off the point, so leftover solver noise would show up as
    spurious slope defects; conic.IPM_TOL is tight for that reason.  A
    steer point that fails verification ends the pass: its Farkas
    certificate y, read in the primal's coordinates z = y / (b.y) / d as
    (P, M, t = 1), is judged as a primal iterate is, and one whose margin
    reaches PRIMAL_MARGIN makes the result "infeasible", with the
    certificate in the diagnostics and its margin in the result; otherwise
    "numerical_limit".

    H is rank one when its second eigenvalue over its first, the rank
    ratio, is within TOL_RANK.  Without deflate a verified steer point that
    is not rank one comes back with zero rounds and rank_stop
    "equilibrium": analyze deflates only where it knows no equilibrium
    input, so it has a witness there already.  With deflate, while the
    current point is not rank one, re-solves minimizing the weight on its
    non-dominant eigenspace and keeps a round's point only if it lowers the
    rank ratio.  The rounds stop at rank one, once a round turns H's
    dominant eigenvector by sin < sqrt(TOL_RANK) (a round not kept turns it
    by 0), or after _MAX_RANK_ROUNDS; rank_stop says which.  Every point is
    verified against the raw constraints and kept as the solver returned
    it.  rank_trail starts at the ratio of the steer point; a steer point
    already rank one comes back with zero rounds run.
    """
    steer = _steer_matrix(dual.system)
    res, best_assign, (ok, best_eq, best_cone) = _solve_point(dual, -steer)
    diagnostics = {"ipm_status": res.status, "ipm_iterations": res.iterations}
    if not ok:
        # a Farkas certificate y reads as the primal point z with t = 1
        by, margin = float(dual.b @ res.y), None
        if by > 0.0:
            z = res.y / by / dual.d
            margin = _primal_true_margin(dual, z)
        status = "numerical_limit"
        if margin is not None and margin >= PRIMAL_MARGIN:
            status = "infeasible"
            diagnostics["certificate"] = _reconstruct(dual.var_slices, z)
        return SolveResult(status, best_assign, Residuals(best_eq, best_cone), diagnostics,
                           margin=margin)

    best_ratio, best_V, best_h = _rank_ratio(best_assign["H"])
    trail = [best_ratio]

    rounds, turn, settled = 0, 1.0, np.sqrt(TOL_RANK)
    while deflate and best_h is None and turn >= settled and rounds < _MAX_RANK_ROUNDS:
        V2 = best_V[:, :-1]  # all but the dominant eigenvector
        _, assignment, (ok, max_eq, max_cone) = _solve_point(dual, V2 @ V2.T)
        rounds += 1

        ratio, V, h = _rank_ratio(assignment["H"]) if ok else (best_ratio, None, None)
        improved = ratio < best_ratio
        # sin of the dominant eigenvector's turn; 0 for a round not kept
        turn = float(np.linalg.norm(V2.T @ V[:, -1])) if improved else 0.0
        if improved:
            best_assign, best_eq, best_cone = assignment, max_eq, max_cone
            best_ratio, best_V, best_h = ratio, V, h
        trail.append(best_ratio)

    diagnostics.update(rank_trail=trail, rounds=rounds, rank_stop=(
        "rank_one" if best_h is not None else "equilibrium" if not deflate
        else "settled" if turn < settled else "max_rounds"))
    return SolveResult("feasible", best_assign, Residuals(best_eq, best_cone), diagnostics,
                       best_h)
