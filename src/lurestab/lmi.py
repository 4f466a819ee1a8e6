"""Assembly of the stability LMI as a conic problem, and the map to its dual.

The LMI is assembled on the band [0, 1] only; every other band is brought
there by system.normalize_band before it reaches this module.

Primal (per nonlinearity class): find P and a multiplier matrix M in the
DHD cone (DD for odd nonlinearities) such that

    L(P, M) = [A B]^T P [A B] - [I 0]^T P [I 0]
            + [C D; 0 I]^T Pi(M, band) [C D; 0 I]  <  0,

with Pi the paper's multiplier (multipliers.py).  L is stated once, in
lmi_congruence, as congruences of one factor U: primal_lmi_matrix, the
primal's LMI rows and the engine's structured Schur complement all read
it from there, and the Pi form is only the reference it is tested against.

P is a free symmetric variable: Schur stability of A makes P > 0 follow
from the inequality.  build_primal returns the primal's dense form: the
decision coordinates z of the free variables (P, M, t), and constraint
rows F0 + F z that must lie in cones.  This module owns those
coordinates, and writes every coefficient from the structure: the LMI's
from the congruence terms, every other row as an incidence of the
coordinates.

Dual: it is not written here.  The primal's constraints that vanish at
zero (F0 = 0) form a homogeneous system in z, and by the theorem of
alternatives (Boyd & Vandenberghe, Convex Optimization, sec. 5.8) it has
no solution with t > 0 exactly when some y in their cone satisfies
F_h^T y = -e_t.  The engine builds that adjoint from F.  Each homogeneous
constraint names the dual block its multiplier carries (ConeConstraint.dual,
read through DUAL_SCALE), which gives the paper's dual

    [A B] H [A B]^T = [I 0] H [I 0]^T,   trace(H) = 1,   H PSD,
    Y(H) := [0 I] H ([C D] - [0 I])^T  =  1 f^T + g 1^T + X      (DHD)
    diag Y = f + g,  Y - X + Z = 0,  X + Z + 1 f^T + g 1^T = 0   (DD, off-diagonal)

with f, g >= 0 and X, Z zero-diagonal with nonpositive entries.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .conic import svec, svec_dim
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
    "primal_lmi_matrix",
]

BOX_BOUND = 1.0e4

# how a constraint's rows are read, per cone: as the coordinates of the
# variable kind named
_CONE_KINDS = {"psd": "sym", "nonneg": "vector", "hollow_nonneg": "hollow"}

# A dual block is DUAL_SCALE[cone] * y^T for the multiplier y of the
# constraint that names it: the multiplier of lmi_margin is H itself, of
# row_sums 2 f, of col_sums 2 g, of m_offdiag_nonpos (DHD) or dom_hi (DD)
# -2 X^T, and of dom_lo -2 Z^T.  The rows with F0 != 0 (the box and the cap)
# have no dual block.
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
    names the dual block carried by the multiplier of a homogeneous
    constraint.
    """

    name: str
    cone: str
    dim: int
    dual: Optional[str] = None

    @property
    def kind(self) -> str:
        return _CONE_KINDS[self.cone]


@dataclass(frozen=True, eq=False)
class SdpFeasibilityProblem:
    """The primal's dense form: rows F0 + F z over the decision coordinates
    z, each constraint's rows in its cone, with objective.z maximized.

    variables holds (VarSpec, coordinate slice) and constraints
    (ConeConstraint, row slice), in order, PSD constraints first.
    """

    variables: tuple
    constraints: tuple
    F0: np.ndarray
    F: np.ndarray
    objective: np.ndarray
    meta: dict = field(default_factory=dict)


def primal_lmi_matrix(sys: StateSpaceSystem, P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The (n+m) x (n+m) matrix L(P, M) required negative definite by the
    primal, batched over the leading axes of P and M."""
    return _lmi_matrix(lmi_congruence(sys), P, M)


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


def multiplier_matrix(assignment: dict) -> np.ndarray:
    """The multiplier M of a primal assignment: M_diag on the diagonal,
    M_offdiag off it."""
    return np.diag(assignment["M_diag"]) + assignment["M_offdiag"]


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


def _lmi_coefficients(congruence: dict, v) -> np.ndarray:
    """svec of L's coefficient of each coordinate of a variable with terms,
    one row per coordinate: w sum_k s_k (U_l^T E U_r + U_r^T E^T U_l), E
    the unit matrix at the coordinate's entry (_matrix_entries)."""
    U = congruence["U"]
    a, b, w = _matrix_entries(v)
    X = 0.0
    for l, r, s in congruence["terms"][v.name]:
        T = s * U[l + a][:, :, None] * U[r + b][:, None, :]
        X = X + T + np.swapaxes(T, -1, -2)
    return svec(w[:, None, None] * X)


def build_primal(sys: StateSpaceSystem) -> SdpFeasibilityProblem:
    """Assemble the max-margin strict-feasibility problem for the primal.

    Strictness is decided by maximizing t in L <= -t I, with t <= 1, under
    box bounds on P and on the diagonal of M, which makes the homogeneous
    problem numerically well-posed.  The caller declares the primal strictly
    feasible when the reported margin t* clears its threshold.  The cone of
    M is DHD for the slope class and DD for the odd one; M_ii >= 0 (and
    M_abs >= 0 for DD) is implied by the constraints below and not stated.

    Every coefficient is written from the structure: the LMI's columns from
    the congruence terms, every other row as an incidence of the
    coordinates.  The boxes are stated in units of the bound, which keeps
    every constant of F0 at O(1).
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

    # lmi_margin is -L - t I
    congruence = lmi_congruence(sys)
    lmi = {"t": -svec(np.eye(n + m))[:, None]}
    for v in variables:
        if v.name in congruence["terms"]:
            lmi[v.name] = -_lmi_coefficients(congruence, v).T
    # P_ij is z_k / w_k, with w_k the svec weight of its coordinate
    p_box = np.diag(1.0 / (_matrix_entries(variables[0])[2] * BOX_BOUND))
    rows, cols = _offdiag_pairs(m)
    row_sums = (rows == np.arange(m)[:, None]).astype(float)
    col_sums = (cols == np.arange(m)[:, None]).astype(float)
    eye_m, eye_h = np.eye(m), np.eye(rows.size)

    # (constraint, its F0, {variable: its block of F}), PSD first
    spec = [
        (ConeConstraint("lmi_margin", "psd", n + m, dual="H"), 0.0, lmi),
        (ConeConstraint("margin_cap", "nonneg", 1), 1.0, {"t": -np.eye(1)}),
        (ConeConstraint("p_box_hi", "nonneg", svec_dim(n)), 1.0, {"P": -p_box}),
        (ConeConstraint("p_box_lo", "nonneg", svec_dim(n)), 1.0, {"P": p_box}),
        (ConeConstraint("m_diag_box", "nonneg", m), 1.0, {"M_diag": -eye_m / BOX_BOUND}),
    ]
    # the sums run over M_abs (DD) or M_offdiag (DHD)
    summed, sign = ("M_abs", -1.0) if odd else ("M_offdiag", 1.0)
    spec += [
        (ConeConstraint("row_sums", "nonneg", m, dual="f"), 0.0,
         {"M_diag": eye_m, summed: sign * row_sums}),
        (ConeConstraint("col_sums", "nonneg", m, dual="g"), 0.0,
         {"M_diag": eye_m, summed: sign * col_sums}),
    ]
    if odd:
        spec += [
            (ConeConstraint("dom_hi", "hollow_nonneg", m, dual="X"), 0.0,
             {"M_abs": eye_h, "M_offdiag": -eye_h}),
            (ConeConstraint("dom_lo", "hollow_nonneg", m, dual="Z"), 0.0,
             {"M_abs": eye_h, "M_offdiag": eye_h}),
        ]
    else:
        spec.append((ConeConstraint("m_offdiag_nonpos", "hollow_nonneg", m, dual="X"), 0.0,
                     {"M_offdiag": -eye_h}))

    blocks, nrows = _layout([con for con, _, _ in spec])
    at = {v.name: sl for v, sl in var_slices}
    F0, F = np.zeros(nrows), np.zeros((nrows, nz))
    for (_, sl), (_, f0, coefficients) in zip(blocks, spec):
        F0[sl] = f0
        for name, block in coefficients.items():
            F[sl, at[name]] = block
    objective = np.zeros(nz)
    objective[at["t"]] = 1.0
    return SdpFeasibilityProblem(
        variables=tuple(var_slices),
        constraints=tuple(blocks),
        F0=F0,
        F=F,
        objective=objective,
        meta={"system": sys, "congruence": congruence},
    )
