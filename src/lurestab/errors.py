"""Exception hierarchy for the analysis pipeline."""


class LurestabError(Exception):
    """Base class for all library-specific errors."""


class StructuralError(LurestabError):
    """Malformed input: dimension mismatch, bad kind/band combination."""


class AssumptionViolatedError(LurestabError):
    """A standing assumption fails (A not Schur stable); analysis refuses."""


class UnsupportedModeError(LurestabError):
    """Requested operation outside its supported regime."""


class NumericFailureError(LurestabError):
    """Iteration cap or divergence in a numerical routine."""


class CertificateInconsistentError(LurestabError):
    """Certificate data contradicts what the underlying theory guarantees."""


class InternalContradictionError(LurestabError):
    """Solver output contradicts a proven property; signals a defect upstream."""
