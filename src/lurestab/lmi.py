"""Assembly of the stability LMI as a conic problem, and the map to its dual.

The LMI is assembled on the band [0, 1] only; every other band is brought
there by system.normalize_band before it reaches this module.

Primal (per nonlinearity class): find P and a multiplier matrix M in the
DHD cone (DD for odd nonlinearities) such that

    L(P, M) = [A B]^T P [A B] - [I 0]^T P [I 0]
            + [C D; 0 I]^T Pi(M, band) [C D; 0 I]  <  0,

with Pi the paper's multiplier (multipliers.py).  L is stated once, in
lmi_congruence, as congruences of one factor U: the margin audit
(_lmi_matrix) and the primal's LMI rows, which the engine takes through
the congruence (engine._LmiGram) at every size, both read it from there,
and the Pi form is only the reference it is tested against.

P is a free symmetric variable: Schur stability of A makes P > 0 follow
from the inequality.  build_primal returns the primal: the decision
coordinates z of the free variables (P, M, t), and constraint rows F z
that must lie in cones.  This module owns those coordinates and writes
every row after the LMI's as an incidence of them; the LMI's rows are
left to the congruence terms, and the engine is their one writer.

Dual: it is not written here.  Every row is homogeneous in z, and by the
theorem of alternatives (Boyd & Vandenberghe, Convex Optimization,
sec. 5.8) F z in K has no solution with t > 0 exactly when some y in K
satisfies F^T y = -e_t.  The engine builds that adjoint.  Each
constraint names the dual block its multiplier carries
(ConeConstraint.dual, read through DUAL_SCALE), which gives the paper's
dual

    [A B] H [A B]^T = [I 0] H [I 0]^T,   trace(H) = 1,   H PSD,
    Y(H) := [0 I] H ([C D] - [0 I])^T  =  1 f^T + g 1^T + X      (DHD)
    diag Y = f + g,  Y - X + Z = 0,  X + Z + 1 f^T + g 1^T = 0   (DD, off-diagonal)

with f, g >= 0 and X, Z zero-diagonal with nonpositive entries.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .conic import svec_dim
from .errors import StructuralError
from .multipliers import build_multiplier  # noqa: F401  bench/spans.py counts its calls here
from .system import NonlinearityClass, StateSpaceSystem

__all__ = [
    "DUAL_SCALE",
    "ConeConstraint",
    "SdpFeasibilityProblem",
    "VarSpec",
    "build_primal",
    "multiplier_matrix",
]

# how a constraint's rows are read, per cone: as the coordinates of the
# variable kind named
_CONE_KINDS = {"psd": "sym", "nonneg": "vector", "hollow_nonneg": "hollow"}

# A dual block is DUAL_SCALE[cone] * y^T for the multiplier y of the
# constraint that names it: the multiplier of lmi_margin is H itself, of
# row_sums 2 f, of col_sums 2 g, of m_offdiag_nonpos (DHD) or dom_hi (DD)
# -2 X^T, and of dom_lo -2 Z^T.
DUAL_SCALE = {"psd": 1.0, "nonneg": 0.5, "hollow_nonneg": -0.5}


@dataclass(frozen=True)
class VarSpec:
    """One named free decision variable.

    kind: "sym" (symmetric matrix), "vector", "hollow" (zero diagonal,
    free off-diagonal).  dim is the matrix dimension, or the length of a
    vector.
    """

    name: str
    kind: str
    dim: int


@dataclass(frozen=True)
class ConeConstraint:
    """One block of constraint rows, which must lie in the cone.

    cone: "psd" (symmetric matrix, positive semidefinite), "nonneg"
    (entrywise nonnegative vector), "hollow_nonneg" (square matrix with
    nonnegative off-diagonal entries; the diagonal has no rows).  dim is
    the matrix dimension, or the length of a vector; the rows are the
    coordinates of the variable kind the cone is read as (kind).  dual
    names the dual block carried by the constraint's multiplier.
    """

    name: str
    cone: str
    dim: int
    dual: str

    @property
    def kind(self) -> str:
        return _CONE_KINDS[self.cone]


@dataclass(frozen=True, eq=False)
class SdpFeasibilityProblem:
    """The primal: rows F z over the decision coordinates z, each
    constraint's rows in its cone, with objective.z maximized.

    variables holds (VarSpec, coordinate slice) and constraints
    (ConeConstraint, row slice), in order, the LMI's first.  F_incidence
    holds F's rows after the LMI's, every one an incidence of the
    coordinates; the LMI's rows are its congruence (meta["congruence"],
    lmi_congruence) and -I at the identity variable, which the engine
    reads (engine._LmiGram).
    """

    variables: tuple
    constraints: tuple
    F_incidence: np.ndarray
    objective: np.ndarray
    meta: dict = field(default_factory=dict)


def lmi_congruence(sys: StateSpaceSystem) -> dict:
    """L(P, M) as congruences of one factor: the package's one statement of L.

    With U = [[A B]; [I 0]; G_z; G_w], where G_z = [nu C, nu D - I] and
    G_w = [-mu C, I - mu D] are the rows of V [C D; 0 I] in multipliers.py,

        L(P, M) = [A B]^T P [A B] - [I 0]^T P [I 0] + G_z^T M G_w + G_w^T M^T G_z.

    Returns {"U": U, "terms": terms, "identity": "t"}.  terms maps each
    variable of L to its terms (l, r, s): the variable's value V, read as
    a matrix (a vector as the diagonal of one), enters L as the sum over
    its terms of s (U_l^T V U_r + U_r^T V^T U_l), where U_l and U_r are the
    dim(V) rows of U from row l and from row r.  A symmetric variable's
    terms have l = r; M_diag and M_offdiag share the terms of M.
    lmi_margin is -L - t I: it holds these terms with the sign flipped, -I
    for the "identity" variable t, and nothing of any other variable.
    """
    n, m = sys.n, sys.m
    mu, nu = sys.band.mu, sys.band.nu
    U = np.vstack([
        np.hstack([sys.A, sys.B]),
        np.hstack([np.eye(n), np.zeros((n, m))]),
        np.hstack([nu * sys.C, nu * sys.D - np.eye(m)]),
        np.hstack([-mu * sys.C, np.eye(m) - mu * sys.D]),
    ])
    p_terms = ((0, 0, 0.5), (n, n, -0.5))
    m_terms = ((2 * n, 2 * n + m, 1.0),)
    terms = {"P": p_terms, "M_diag": m_terms, "M_offdiag": m_terms}
    return {"U": U, "terms": terms, "identity": "t"}


def _lmi_matrix(congruence: dict, P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """L(P, M) read off the congruence, batched over the leading axes of P
    and M; exactly symmetric."""
    U, terms = congruence["U"], congruence["terms"]
    L = 0.0
    for V, var_terms in ((P, terms["P"]), (M, terms["M_offdiag"])):
        d = V.shape[-1]
        for l, r, s in var_terms:
            T = U[l:l + d].T @ V @ U[r:r + d]
            L = L + s * (T + np.swapaxes(T, -1, -2))
    return L


def multiplier_matrix(assignment: dict, nl_class: NonlinearityClass) -> np.ndarray:
    """The multiplier M of a primal assignment, M_diag on the diagonal and
    M_offdiag off it, moved onto its cone as bench/checker.py does: DHD
    clears positive off-diagonal entries, then each diagonal entry grows by
    the deficit of its row or column (sums for DHD, dominance for DD).  The
    IPM's rows may leave the cone, by rounding or at an iterate short of
    the optimum; the moved M is the one a certificate holds, and an M
    inside its cone comes back as assembled."""
    diag, off = np.asarray(assignment["M_diag"], dtype=float), assignment["M_offdiag"]
    if nl_class is NonlinearityClass.SLOPE_ODD:
        rows, cols = diag - np.abs(off).sum(axis=1), diag - np.abs(off).sum(axis=0)
    else:
        off = np.minimum(off, 0.0)
        rows, cols = diag + off.sum(axis=1), diag + off.sum(axis=0)
    return np.diag(diag + np.maximum(0.0, -np.minimum(rows, cols))) + off


@lru_cache(maxsize=None)
def _offdiag_pairs(d: int):
    """Row-major (row, col) indices of the off-diagonal entries of d x d."""
    rows, cols = np.nonzero(~np.eye(d, dtype=bool))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _var_ncoords(v) -> int:
    """Coordinates of a variable, or of a constraint's rows."""
    if v.kind == "sym":
        return svec_dim(v.dim)
    if v.kind == "vector":
        return v.dim
    return v.dim * v.dim - v.dim  # hollow


def _layout(items) -> tuple:
    """Contiguous coordinate slices of variables (or of constraints' rows),
    in order, and their total."""
    slices, at = [], 0
    for v in items:
        nc = _var_ncoords(v)
        slices.append((v, slice(at, at + nc)))
        at += nc
    return slices, at


def _matrix_entries(v):
    """Where each coordinate of a variable sits in its value read as a
    matrix (a vector as the diagonal of one): (rows, cols, weights), so
    that coordinate k is weights[k] times the unit matrix at
    (rows[k], cols[k]) -- for "sym" together with its mirror entry, which
    a symmetric term maps to the same matrix.  The conventions of
    engine._from_coords."""
    if v.kind == "sym":
        rows, cols = np.triu_indices(v.dim)
        return rows, cols, np.where(rows == cols, 1.0, np.sqrt(2.0))
    if v.kind == "hollow":
        rows, cols = _offdiag_pairs(v.dim)
    else:
        rows = cols = np.arange(v.dim)
    return rows, cols, np.ones(rows.size)


def build_primal(sys: StateSpaceSystem) -> SdpFeasibilityProblem:
    """Assemble the max-margin strict-feasibility problem for the primal.

    Strictness is decided by maximizing t in L <= -t I.  Every row is
    homogeneous in z, so a solution with t > 0 scales to any margin: the
    caller stops at the first certificate, and an infeasible primal's
    optimum is t* = 0.  The cone of M is DHD for the slope class and DD for
    the odd one; M_ii >= 0 (and M_abs >= 0 for DD) is implied by the
    constraints below and not stated.

    The LMI's rows are left to its congruence, which the engine reads at
    every size (engine._LmiGram); every other row is written here as an
    incidence of the coordinates.
    """
    if not sys.band.is_reduced:
        raise StructuralError("the primal LMI is defined on the band [0, 1] only")
    odd = sys.nl_class is NonlinearityClass.SLOPE_ODD
    n, m = sys.n, sys.m

    variables = [
        VarSpec("P", "sym", n),
        VarSpec("M_diag", "vector", m),
        VarSpec("M_offdiag", "hollow", m),
    ]
    if odd:
        variables.append(VarSpec("M_abs", "hollow", m))
    variables.append(VarSpec("t", "vector", 1))
    var_slices, nz = _layout(variables)

    rows, cols = _offdiag_pairs(m)
    row_sums = (rows == np.arange(m)[:, None]).astype(float)
    col_sums = (cols == np.arange(m)[:, None]).astype(float)
    eye_m, eye_h = np.eye(m), np.eye(rows.size)

    # the sums run over M_abs (DD) or M_offdiag (DHD)
    summed, sign = ("M_abs", -1.0) if odd else ("M_offdiag", 1.0)
    # (constraint, {variable: its block of F}), after the LMI
    spec = [
        (ConeConstraint("row_sums", "nonneg", m, dual="f"),
         {"M_diag": eye_m, summed: sign * row_sums}),
        (ConeConstraint("col_sums", "nonneg", m, dual="g"),
         {"M_diag": eye_m, summed: sign * col_sums}),
    ]
    if odd:
        spec += [
            (ConeConstraint("dom_hi", "hollow_nonneg", m, dual="X"),
             {"M_abs": eye_h, "M_offdiag": -eye_h}),
            (ConeConstraint("dom_lo", "hollow_nonneg", m, dual="Z"),
             {"M_abs": eye_h, "M_offdiag": eye_h}),
        ]
    else:
        spec.append((ConeConstraint("m_offdiag_nonpos", "hollow_nonneg", m, dual="X"),
                     {"M_offdiag": -eye_h}))

    lmi = ConeConstraint("lmi_margin", "psd", n + m, dual="H")
    blocks, _ = _layout([lmi] + [con for con, _ in spec])
    incidence, nrows = _layout([con for con, _ in spec])
    at = {v.name: sl for v, sl in var_slices}
    F = np.zeros((nrows, nz))
    for (_, sl), (_, coefficients) in zip(incidence, spec):
        for name, block in coefficients.items():
            F[sl, at[name]] = block
    objective = np.zeros(nz)
    objective[at["t"]] = 1.0
    return SdpFeasibilityProblem(
        variables=tuple(var_slices),
        constraints=tuple(blocks),
        F_incidence=F,
        objective=objective,
        meta={"system": sys, "congruence": lmi_congruence(sys)},
    )

