"""Assembly of the stability LMI as a conic problem, and the map to its dual.

The LMI is assembled on the band [0, 1] only; every other band is brought
there by system.normalize_band before it reaches this module.

Primal (per nonlinearity class): find P and a multiplier matrix M in the
DHD cone (DD for odd nonlinearities) such that

    L(P, M) = [A B]^T P [A B] - [I 0]^T P [I 0]
            + [C D; 0 I]^T Pi(M, band) [C D; 0 I]  <  0,

with Pi the paper's multiplier (multipliers.py).  L is stated once, in
lmi_congruence, as congruences of one factor U: primal_lmi_matrix, the
constraint callables and the engine's structured Schur complement all read
it from there, and the Pi form is only the reference it is tested against.

P is a free symmetric variable: Schur stability of A makes P > 0 follow
from the inequality.  The problem is declarative: free decision variables
(P, M, t) and affine constraint expressions, given as callables, that must
lie in cones.  The callables accept leading batch axes on any variable:
the engine's probe reads their coefficients F0 + F z with one evaluation
per variable, on that variable's whole coordinate basis stacked.

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
from typing import Callable, Optional

import numpy as np

from .errors import StructuralError
from .multipliers import build_multiplier  # noqa: F401  bench/spans.py counts its calls here
from .system import NonlinearityClass, StateSpaceSystem

__all__ = [
    "DUAL_SCALE",
    "ConeConstraint",
    "SdpFeasibilityProblem",
    "VarSpec",
    "build_primal",
    "primal_lmi_matrix",
]

BOX_BOUND = 1.0e4

_VAR_KINDS = ("sym", "vector", "hollow")
_CONES = ("psd", "nonneg", "hollow_nonneg")

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

    def __post_init__(self):
        if self.kind not in _VAR_KINDS:
            raise StructuralError(f"unknown variable kind {self.kind!r}")
        if self.dim < 1:
            raise StructuralError(f"variable {self.name!r} needs dim >= 1")

    @property
    def shape(self) -> tuple:
        return (self.dim,) if self.kind == "vector" else (self.dim, self.dim)


@dataclass(frozen=True)
class ConeConstraint:
    """Affine constraint expression: fn(assignment) must lie in the cone.

    fn must be affine in the assignment and accept leading batch axes on
    any of its variables (a stack of values), broadcasting the others and
    returning the stack of its values: the engine's probe, the only caller
    that stacks, reads its coefficients from one stacked evaluation per
    variable.

    cone: "psd" (symmetric matrix, positive semidefinite), "nonneg"
    (entrywise nonnegative vector), "hollow_nonneg" (square matrix with
    nonnegative off-diagonal entries; the diagonal is ignored).  dual names
    the dual block carried by the multiplier of a homogeneous constraint.
    """

    name: str
    fn: Callable[[dict], np.ndarray]
    cone: str
    dual: Optional[str] = None

    def __post_init__(self):
        if self.cone not in _CONES:
            raise StructuralError(f"unknown constraint cone {self.cone!r}")


@dataclass(frozen=True, eq=False)
class SdpFeasibilityProblem:
    """Free variables and cone constraints, with objective {variable name:
    coefficients} maximized over them."""

    variables: tuple
    constraints: tuple
    objective: dict
    meta: dict = field(default_factory=dict)

    def zero_assignment(self) -> dict:
        return {v.name: np.zeros(v.shape) for v in self.variables}


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


@lru_cache(maxsize=None)
def _triu_index(d: int):
    rows, cols = np.triu_indices(d)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _triu_entries(P: np.ndarray) -> np.ndarray:
    rows, cols = _triu_index(P.shape[-1])
    return P[..., rows, cols]


def build_primal(sys: StateSpaceSystem) -> SdpFeasibilityProblem:
    """Assemble the max-margin strict-feasibility problem for the primal.

    Strictness is decided by maximizing t in L <= -t I, with t <= 1, under
    box bounds on P and on the diagonal of M, which makes the homogeneous
    problem numerically well-posed.  The caller declares the primal strictly
    feasible when the reported margin t* clears its threshold.  The cone of
    M is DHD for the slope class and DD for the odd one; M_ii >= 0 (and
    M_abs >= 0 for DD) is implied by the constraints below and not stated.
    """
    if not sys.band.is_reduced:
        raise StructuralError("the primal LMI is defined on the band [0, 1] only")
    odd = sys.nl_class is NonlinearityClass.SLOPE_ODD
    n, m = sys.n, sys.m
    L = n + m
    ones_m = np.ones(m)
    eye_m, eye_L = np.eye(m), np.eye(L)

    variables = [
        VarSpec("P", "sym", n),
        VarSpec("M_diag", "vector", m),
        VarSpec("M_offdiag", "hollow", m),
    ]
    if odd:
        variables.append(VarSpec("M_abs", "hollow", m))
    variables.append(VarSpec("t", "vector", 1))

    def the_m(v: dict) -> np.ndarray:
        return v["M_diag"][..., :, None] * eye_m + v["M_offdiag"]

    congruence = lmi_congruence(sys)

    def strict_lmi(v: dict) -> np.ndarray:
        return _lmi_matrix(congruence, v["P"], the_m(v))

    # box constraints are stated in units of the bound, which keeps every
    # constraint constant at O(1)
    constraints = [
        ConeConstraint(
            "lmi_margin",
            lambda v: -strict_lmi(v) - v["t"][..., 0, None, None] * eye_L,
            "psd",
            dual="H",
        ),
        ConeConstraint("margin_cap", lambda v: 1.0 - v["t"], "nonneg"),
        ConeConstraint(
            "p_box_hi", lambda v: 1.0 - _triu_entries(v["P"]) / BOX_BOUND, "nonneg"
        ),
        ConeConstraint(
            "p_box_lo", lambda v: 1.0 + _triu_entries(v["P"]) / BOX_BOUND, "nonneg"
        ),
        ConeConstraint("m_diag_box", lambda v: 1.0 - v["M_diag"] / BOX_BOUND, "nonneg"),
    ]

    if odd:
        constraints += [
            ConeConstraint(
                "row_sums", lambda v: v["M_diag"] - v["M_abs"] @ ones_m, "nonneg", dual="f"
            ),
            ConeConstraint(
                "col_sums",
                lambda v: v["M_diag"] - np.swapaxes(v["M_abs"], -1, -2) @ ones_m,
                "nonneg",
                dual="g",
            ),
            ConeConstraint(
                "dom_hi", lambda v: v["M_abs"] - v["M_offdiag"], "hollow_nonneg", dual="X"
            ),
            ConeConstraint(
                "dom_lo", lambda v: v["M_abs"] + v["M_offdiag"], "hollow_nonneg", dual="Z"
            ),
        ]
    else:
        constraints += [
            ConeConstraint(
                "row_sums", lambda v: v["M_diag"] + v["M_offdiag"] @ ones_m, "nonneg", dual="f"
            ),
            ConeConstraint(
                "col_sums",
                lambda v: v["M_diag"] + np.swapaxes(v["M_offdiag"], -1, -2) @ ones_m,
                "nonneg",
                dual="g",
            ),
            ConeConstraint(
                "m_offdiag_nonpos", lambda v: -v["M_offdiag"], "hollow_nonneg", dual="X"
            ),
        ]

    meta = {
        "system": sys,
        "strict_lmi": strict_lmi,
        "multiplier_from": the_m,
        "congruence": congruence,
    }
    return SdpFeasibilityProblem(
        variables=tuple(variables),
        constraints=tuple(constraints),
        objective={"t": np.ones(1)},
        meta=meta,
    )
