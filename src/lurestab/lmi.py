"""Assembly of the stability LMI and its dual as conic problems.

Both are assembled on the band [0, 1] only; every other band is brought
there by system.normalize_band before it reaches this module.

Primal (per nonlinearity class): find P and a multiplier matrix M in the
DHD cone (DD for odd nonlinearities) such that

    L(P, M) = [A B; I 0]-type quadratic Lyapunov difference
            + [C D; 0 I]^T Pi(M, band) [C D; 0 I]  <  0.

P is a free symmetric variable: Schur stability of A makes P > 0 follow
from the inequality.

Dual: find H PSD, f, g >= 0 and zero-diagonal Z-matrices such that

    [A B] H [A B]^T = [I 0] H [I 0]^T
    Y(H) := [0 I] H ([C D] - [0 I])^T   couples to (f, g, X[, Z])
    trace(H) = 1.

Problems are declarative, with constraints given as callables: the primal
in inequality form (free variables P, M, t; affine expressions required to
lie in cones), the dual in equality form (cone variables; affine equality
blocks).  The engine turns them into matrix form by probing a coordinate
basis.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import StructuralError
from .multipliers import build_multiplier
from .system import StateSpaceSystem

__all__ = [
    "ConeConstraint",
    "EqualityBlock",
    "LmiKind",
    "SdpFeasibilityProblem",
    "VarSpec",
    "build_dual",
    "build_primal",
    "output_coupling_block",
    "primal_lmi_matrix",
    "state_equality_block",
]

BOX_BOUND = 1.0e4

_VAR_KINDS = ("psd", "nonneg", "z0", "sym", "vector", "hollow")
_EQ_STRUCTURES = ("sym", "full", "hollow", "vector", "scalar")
_CONES = ("psd", "nonneg", "hollow_nonneg")


@dataclass(frozen=True)
class LmiKind:
    """Which of the four LMI systems to assemble."""

    tag: str

    def __post_init__(self):
        if self.tag not in ("primal_dhd", "primal_dd", "dual_dhd", "dual_dd"):
            raise StructuralError(f"unknown LMI kind {self.tag!r}")

    @property
    def is_primal(self) -> bool:
        return self.tag.startswith("primal")


LmiKind.PRIMAL_DHD = LmiKind("primal_dhd")
LmiKind.PRIMAL_DD = LmiKind("primal_dd")
LmiKind.DUAL_DHD = LmiKind("dual_dhd")
LmiKind.DUAL_DD = LmiKind("dual_dd")


@dataclass(frozen=True)
class VarSpec:
    """One named block variable.

    Cone kinds, for the equality form: "psd" (symmetric PSD matrix),
    "nonneg" (entrywise nonnegative vector), "z0" (zero diagonal,
    nonpositive off-diagonal).  Free kinds, for the inequality form: "sym"
    (symmetric matrix), "vector", "hollow" (zero diagonal, free
    off-diagonal).  dim is the matrix dimension, or the length for vector
    kinds.
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
        if self.kind in ("nonneg", "vector"):
            return (self.dim,)
        return (self.dim, self.dim)


@dataclass(frozen=True)
class EqualityBlock:
    """Affine equality: fn(assignment) == rhs, entrywise.

    structure tells the engine which entries carry independent equations:
    "sym" (upper triangle), "full" (all entries), "hollow" (off-diagonal
    entries), "vector", "scalar".
    """

    name: str
    fn: Callable[[dict], np.ndarray]
    rhs: np.ndarray
    structure: str

    def __post_init__(self):
        if self.structure not in _EQ_STRUCTURES:
            raise StructuralError(f"unknown equality structure {self.structure!r}")


@dataclass(frozen=True)
class ConeConstraint:
    """Affine constraint expression: fn(assignment) must lie in the cone.

    cone: "psd" (symmetric matrix, positive semidefinite), "nonneg"
    (entrywise nonnegative vector), "hollow_nonneg" (square matrix with
    nonnegative off-diagonal entries; the diagonal is ignored).
    """

    name: str
    fn: Callable[[dict], np.ndarray]
    cone: str

    def __post_init__(self):
        if self.cone not in _CONES:
            raise StructuralError(f"unknown constraint cone {self.cone!r}")


@dataclass(frozen=True, eq=False)
class SdpFeasibilityProblem:
    """Declarative conic instance handed to the engine.

    Equality form: cone variables and equality blocks, a pure feasibility
    question.  Inequality form: free variables and cone constraints, with
    objective {variable name: coefficients} maximized over them.
    """

    variables: tuple
    equalities: tuple = ()
    constraints: tuple = ()
    objective: Optional[dict] = None
    meta: dict = field(default_factory=dict)

    def zero_assignment(self) -> dict:
        return {v.name: np.zeros(v.shape) for v in self.variables}


def primal_lmi_matrix(sys: StateSpaceSystem, P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The (n+m) x (n+m) matrix required negative definite by the primal."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, m = sys.n, sys.m
    AB = np.hstack([A, B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    lyap = AB.T @ P @ AB - I0.T @ P @ I0
    CD = np.hstack([C, D])
    OI = np.hstack([np.zeros((m, n)), np.eye(m)])
    outer = np.vstack([CD, OI])
    pi = build_multiplier(M, sys.band).pi
    return lyap + outer.T @ pi @ outer


def state_equality_block(sys: StateSpaceSystem, H: np.ndarray) -> np.ndarray:
    """[A B] H [A B]^T - [I 0] H [I 0]^T, the dual's dynamics block."""
    n, m = sys.n, sys.m
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    return AB @ H @ AB.T - I0 @ H @ I0.T


def output_coupling_block(sys: StateSpaceSystem, H: np.ndarray) -> np.ndarray:
    """Y(H) = [0 I] H ([C D] - [0 I])^T, the matrix the dual couples to (f, g, X[, Z]).

    For a rank-1 H = (h1; h2)(h1; h2)^T it specializes to
    h2 (C h1 + D h2 - h2)^T.
    """
    n, m = sys.n, sys.m
    CD = np.hstack([sys.C, sys.D])
    OI = np.hstack([np.zeros((m, n)), np.eye(m)])
    return OI @ H @ (CD - OI).T


def _steer_matrix(sys: StateSpaceSystem) -> np.ndarray:
    """Linear functional whose value on rank-1 H is h1^T (A h1 + B h2).

    trace(S H) with S = sym([I 0]^T [A B]) equals the proof's branch
    discriminant on rank-1 iterates; the engine uses it as a small tie-break
    toward the branch where a certificate can be concluded.
    """
    n, m = sys.n, sys.m
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    S = I0.T @ AB
    return 0.5 * (S + S.T)


@lru_cache(maxsize=None)
def _triu_index(d: int):
    rows, cols = np.triu_indices(d)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _triu_entries(P: np.ndarray) -> np.ndarray:
    return P[_triu_index(P.shape[0])]


def _offdiag_matrix(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=float, copy=True)
    np.fill_diagonal(out, 0.0)
    return out


def build_primal(sys: StateSpaceSystem, kind: LmiKind) -> SdpFeasibilityProblem:
    """Assemble the max-margin strict-feasibility problem for the primal.

    Strictness is decided by maximizing t in L <= -t I, with t <= 1, under
    box bounds on P and on the diagonal of M, which makes the homogeneous
    problem numerically well-posed.  The caller declares the primal strictly
    feasible when the reported margin t* clears its threshold.
    """
    if not kind.is_primal:
        raise StructuralError(f"build_primal got dual kind {kind.tag!r}")
    if not sys.band.is_reduced:
        raise StructuralError("the primal LMI is defined on the band [0, 1] only")
    n, m = sys.n, sys.m
    L = n + m
    ones_m = np.ones(m)

    variables = [
        VarSpec("P", "sym", n),
        VarSpec("M_diag", "vector", m),
        VarSpec("M_offdiag", "hollow", m),
    ]
    if kind.tag == "primal_dd":
        variables.append(VarSpec("M_abs", "hollow", m))
    variables.append(VarSpec("t", "vector", 1))

    def the_m(v: dict) -> np.ndarray:
        return np.diag(v["M_diag"]) + v["M_offdiag"]

    def strict_lmi(v: dict) -> np.ndarray:
        return primal_lmi_matrix(sys, v["P"], the_m(v))

    # box constraints are stated in units of the bound, which keeps every
    # constraint constant at O(1)
    constraints = [
        ConeConstraint("lmi_margin", lambda v: -strict_lmi(v) - v["t"][0] * np.eye(L), "psd"),
        ConeConstraint("margin_cap", lambda v: 1.0 - v["t"], "nonneg"),
        ConeConstraint(
            "p_box_hi", lambda v: 1.0 - _triu_entries(v["P"]) / BOX_BOUND, "nonneg"
        ),
        ConeConstraint(
            "p_box_lo", lambda v: 1.0 + _triu_entries(v["P"]) / BOX_BOUND, "nonneg"
        ),
        ConeConstraint("m_diag_nonneg", lambda v: v["M_diag"], "nonneg"),
        ConeConstraint("m_diag_box", lambda v: 1.0 - v["M_diag"] / BOX_BOUND, "nonneg"),
    ]

    if kind.tag == "primal_dhd":
        constraints += [
            ConeConstraint(
                "row_sums", lambda v: v["M_diag"] + v["M_offdiag"] @ ones_m, "nonneg"
            ),
            ConeConstraint(
                "col_sums", lambda v: v["M_diag"] + v["M_offdiag"].T @ ones_m, "nonneg"
            ),
            ConeConstraint("m_offdiag_nonpos", lambda v: -v["M_offdiag"], "hollow_nonneg"),
        ]
    else:
        constraints += [
            ConeConstraint(
                "row_sums", lambda v: v["M_diag"] - v["M_abs"] @ ones_m, "nonneg"
            ),
            ConeConstraint(
                "col_sums", lambda v: v["M_diag"] - v["M_abs"].T @ ones_m, "nonneg"
            ),
            ConeConstraint("m_abs_nonneg", lambda v: v["M_abs"], "hollow_nonneg"),
            ConeConstraint("dom_hi", lambda v: v["M_abs"] - v["M_offdiag"], "hollow_nonneg"),
            ConeConstraint("dom_lo", lambda v: v["M_abs"] + v["M_offdiag"], "hollow_nonneg"),
        ]

    meta = {
        "system": sys,
        "kind": kind,
        "strict_lmi": strict_lmi,
        "multiplier_from": the_m,
    }
    return SdpFeasibilityProblem(
        variables=tuple(variables),
        constraints=tuple(constraints),
        objective={"t": np.ones(1)},
        meta=meta,
    )


def build_dual(sys: StateSpaceSystem, kind: LmiKind) -> SdpFeasibilityProblem:
    """Assemble the dual feasibility problem (band [0, 1] only).

    Normalization trace(H) = 1 pins the scale; any nonzero solution of the
    homogeneous system has H != 0, so no solutions are lost.
    """
    if kind.is_primal:
        raise StructuralError(f"build_dual got primal kind {kind.tag!r}")
    if not sys.band.is_reduced:
        raise StructuralError("the dual LMIs are defined on the band [0, 1] only")
    n, m = sys.n, sys.m
    ones = np.ones((m, 1))

    variables = [
        VarSpec("H", "psd", n + m),
        VarSpec("f", "nonneg", m),
        VarSpec("g", "nonneg", m),
        VarSpec("X", "z0", m),
    ]
    equalities = [
        EqualityBlock(
            "dyn", lambda v: state_equality_block(sys, v["H"]), np.zeros((n, n)), "sym"
        ),
        EqualityBlock(
            "scale", lambda v: np.trace(v["H"]), np.asarray(1.0), "scalar"
        ),
    ]

    if kind.tag == "dual_dhd":
        equalities.insert(
            1,
            EqualityBlock(
                "coupling",
                lambda v: output_coupling_block(sys, v["H"])
                - ones @ v["f"][None, :]
                - v["g"][:, None] @ ones.T
                - v["X"],
                np.zeros((m, m)),
                "full",
            ),
        )
    else:
        variables.append(VarSpec("Z", "z0", m))
        equalities.insert(
            1,
            EqualityBlock(
                "coupling_diag",
                lambda v: np.diag(output_coupling_block(sys, v["H"])) - v["f"] - v["g"],
                np.zeros(m),
                "vector",
            ),
        )
        equalities.insert(
            2,
            EqualityBlock(
                "coupling_offdiag",
                lambda v: _offdiag_matrix(
                    output_coupling_block(sys, v["H"]) - v["X"] + v["Z"]
                ),
                np.zeros((m, m)),
                "hollow",
            ),
        )
        equalities.insert(
            3,
            EqualityBlock(
                "pairing",
                lambda v: _offdiag_matrix(
                    v["X"] + v["Z"] + ones @ v["f"][None, :] + v["g"][:, None] @ ones.T
                ),
                np.zeros((m, m)),
                "hollow",
            ),
        )

    meta = {
        "system": sys,
        "kind": kind,
        "psd_main": "H",
        "steer": _steer_matrix(sys),
        "normalization": "scale",
    }
    return SdpFeasibilityProblem(
        variables=tuple(variables), equalities=tuple(equalities), objective=None, meta=meta
    )
