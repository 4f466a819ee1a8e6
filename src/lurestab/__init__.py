"""Absolute stability analysis of discrete-time Lur'e feedback systems.

The library decides absolute stability of the interconnection of an LTI
block ``G = (A, B, C, D)`` with a repeated slope-restricted (optionally odd)
static nonlinearity, using static O'Shea-Zames-Falb multiplier LMIs.  When
the stability LMI fails, the dual LMI is solved, a rank-1 certificate is
extracted, and an explicit destabilizing piecewise-linear nonlinearity is
constructed together with a nonzero equilibrium of the loop it closes.
"""

from .errors import (
    AssumptionViolatedError,
    CertificateInconsistentError,
    ConeViolationError,
    InternalContradictionError,
    LurestabError,
    NumericFailureError,
    StructuralError,
    UnsupportedModeError,
)
from .linalg import numerical_rank_and_factor, spectral_norm, symmetrize
from .system import (
    NonlinearityClass,
    SlopeBand,
    StateSpaceSystem,
    ValidationReport,
    normalize_band,
    spectral_radius,
    validate,
)
from .multipliers import Multiplier, build_multiplier
from .lmi import build_primal
from .engine import Residuals, SolveResult, SolverSettings, reduce_rank, solve
from .pwl import PiecewiseLinearMap, SlopeReport, eval_pwl, verify_slope
from .detector import DualCertificate, Inconclusive, build_pwl, extract_certificate
from .simulate import Trajectory, simulate, solve_loop, vector_field
from .report import AnalysisReport, analyze

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AssumptionViolatedError",
    "CertificateInconsistentError",
    "ConeViolationError",
    "DualCertificate",
    "Inconclusive",
    "InternalContradictionError",
    "LurestabError",
    "Multiplier",
    "NonlinearityClass",
    "NumericFailureError",
    "PiecewiseLinearMap",
    "Residuals",
    "SlopeBand",
    "SlopeReport",
    "SolveResult",
    "SolverSettings",
    "StateSpaceSystem",
    "StructuralError",
    "Trajectory",
    "UnsupportedModeError",
    "ValidationReport",
    "analyze",
    "build_multiplier",
    "build_primal",
    "build_pwl",
    "eval_pwl",
    "extract_certificate",
    "normalize_band",
    "numerical_rank_and_factor",
    "reduce_rank",
    "simulate",
    "solve",
    "solve_loop",
    "spectral_norm",
    "spectral_radius",
    "symmetrize",
    "validate",
    "vector_field",
    "verify_slope",
]
