"""State-space model of the feedback loop and validation of its assumptions.

The plant is the LTI block

    x(k+1) = A x(k) + B w(k)
    z(k)   = C x(k) + D w(k)

closed by w(k) = Phi(z(k)) where Phi applies one scalar map phi to every
channel.  phi is slope-restricted on a band [mu, nu] and optionally odd.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolatedError, StructuralError
from .linalg import spectral_norm

__all__ = [
    "NonlinearityClass",
    "SlopeBand",
    "StateSpaceSystem",
    "ValidationReport",
    "normalize_band",
    "spectral_radius",
    "validate",
]


class NonlinearityClass(enum.Enum):
    """Which class of scalar nonlinearities the loop is closed with."""

    SLOPE = "slope"
    SLOPE_ODD = "slope_odd"


@dataclass(frozen=True)
class SlopeBand:
    """Slope restriction [mu, nu]; the band must contain 0 and have width."""

    mu: float
    nu: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.nu)):
            raise StructuralError("slope band must be finite")
        if not (self.mu <= 0.0 <= self.nu):
            raise StructuralError(
                f"slope band must satisfy mu <= 0 <= nu, got ({self.mu}, {self.nu})"
            )
        if self.mu == self.nu:
            raise StructuralError(
                "slope band [0, 0] holds only phi = 0; analyse the linear plant instead"
            )

    @property
    def is_reduced(self) -> bool:
        """True when the band is exactly [0, 1], the band of the LMI core."""
        return self.mu == 0.0 and self.nu == 1.0


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise StructuralError(f"{name} must be a 2-d array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise StructuralError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True)
class StateSpaceSystem:
    """The plant matrices plus the nonlinearity class they are closed with."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    band: SlopeBand = field(default_factory=lambda: SlopeBand(0.0, 1.0))
    nl_class: NonlinearityClass = NonlinearityClass.SLOPE

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        D = _as_matrix(self.D, "D")
        n = A.shape[0]
        if A.shape != (n, n):
            raise StructuralError(f"A must be square, got {A.shape}")
        m = B.shape[1]
        if B.shape != (n, m):
            raise StructuralError(f"B must be {n}x{m}, got {B.shape}")
        if C.shape != (m, n):
            raise StructuralError(f"C must be {m}x{n}, got {C.shape}")
        if D.shape != (m, m):
            raise StructuralError(f"D must be {m}x{m}, got {D.shape}")
        if m < 1 or n < 1:
            raise StructuralError("system must have at least one state and one channel")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks for one system."""

    n: int
    m: int
    rho_a: float
    schur_margin: float
    d_norm: float
    gain_margin: float
    well_posedness_guaranteed: bool


def validate(sys: StateSpaceSystem) -> ValidationReport:
    """Check the standing assumptions and report the margins.

    Raises AssumptionViolatedError when A is not Schur stable (the whole
    analysis is predicated on it).  A gain margin 1 - ||D|| <= 0 does not
    raise: it only means well-posedness of the loop is not guaranteed for
    the full nonlinearity class.  The loop solver enforces the condition
    that actually matters for a concrete phi, ||D|| * max slope < 1.
    """
    rho = spectral_radius(sys.A)
    if rho >= 1.0:
        raise AssumptionViolatedError(
            f"A must be Schur stable; spectral radius is {rho:.6g}"
        )
    d_norm = spectral_norm(sys.D)
    return ValidationReport(
        n=sys.n,
        m=sys.m,
        rho_a=rho,
        schur_margin=1.0 - rho,
        d_norm=d_norm,
        gain_margin=1.0 - d_norm,
        well_posedness_guaranteed=bool(d_norm < 1.0),
    )


def normalize_band(sys: StateSpaceSystem) -> StateSpaceSystem:
    """The same loop written for a map of slope [0, 1] (loop transformation).

    Every phi of the band [mu, nu] is phi = mu z + (nu - mu) psi with psi of
    slope [0, 1], and psi is odd exactly when phi is.  Closing the plant
    with that split gives, with E = (I - mu D)^{-1},

        A' = A + mu B E C,  B' = (nu - mu)(B + mu B E D),
        C' = E C,           D' = (nu - mu) E D,

    which has the same states and outputs z; its input is psi(z), so an
    original input is w = mu z + (nu - mu) w'.  On [0, 1] E is solved
    against the identity and the map returns the matrices bit for bit.

    Raises AssumptionViolatedError when I - mu D is singular (the loop
    closed with phi = mu z is ill-posed) or A' is not Schur stable (that
    loop is not asymptotically stable).
    """
    mu, width = sys.band.mu, sys.band.nu - sys.band.mu
    lhs = np.eye(sys.m) - mu * sys.D
    try:
        EC = np.linalg.solve(lhs, sys.C)
        ED = np.linalg.solve(lhs, sys.D)
    except np.linalg.LinAlgError:
        raise AssumptionViolatedError(
            f"I - mu D is singular at mu = {mu:.6g}: the loop closed with phi = mu z is ill-posed"
        ) from None
    with np.errstate(all="ignore"):  # a nearly singular I - mu D overflows
        D = width * ED
        A = sys.A + mu * (sys.B @ EC)
        B = width * sys.B + mu * (sys.B @ D)
    if not all(np.all(np.isfinite(M)) for M in (A, B, EC, D)):
        raise AssumptionViolatedError(
            f"I - mu D is numerically singular at mu = {mu:.6g}: the normalized plant is not finite"
        )
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise AssumptionViolatedError(
            f"A + mu B E C is not Schur stable (spectral radius {rho:.6g}): "
            "the loop closed with phi = mu z is not asymptotically stable"
        )
    return StateSpaceSystem(A, B, EC, D, SlopeBand(0.0, 1.0), sys.nl_class)
