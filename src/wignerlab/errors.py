"""Exception hierarchy for the phase-space laboratory."""


class WignerLabError(Exception):
    """Base class for all laboratory errors."""


# --- lattice construction ---

class NonSymmetricCovariance(WignerLabError):
    pass


class NonPositiveCovariance(WignerLabError):
    pass


class InsufficientDomain(WignerLabError):
    """Gaussian tail mass outside the grid box exceeds the policy threshold."""


class BadGridSize(WignerLabError):
    """Grid size must be a power of two (fast-transform requirement)."""


# --- states and operators ---

class WrongRepresentation(WignerLabError):
    pass


class UnnormalizedState(WignerLabError):
    pass


class SpecMismatch(WignerLabError):
    pass


class RepresentationMismatch(WignerLabError):
    pass


class UnknownSubsystem(WignerLabError):
    pass


class NonPositiveOperator(WignerLabError):
    """Eigenvalue below the PSD floor; reported, never silently clipped."""


class InvalidDensity(WignerLabError):
    pass


# --- symbols and quantization ---

class DegreeTooHigh(WignerLabError):
    pass


class DomainOverflow(WignerLabError):
    """Sampled symbol does not live on the expected grid."""


class BadSchedule(WignerLabError):
    """A schedule that is empty, starts after t = 0 or does not increase;
    `index` is the position of the offending segment."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


# --- transforms ---

class GridMismatch(WignerLabError):
    pass


class UnderflowRegion(WignerLabError):
    """Reference density below floor where the field is non-negligible."""


class NotNormalized(WignerLabError):
    pass


# --- dynamics ---

class OrderOverflow(WignerLabError):
    pass


class UnstableStep(WignerLabError):
    """Mass drift beyond the per-step bound, or dt rejected by the CFL guard."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class SnapshotMismatch(WignerLabError):
    """Two snapshot lists that should be paired were taken at different times."""


class EscapeDetected(WignerLabError):
    """Significant mass within one cell of the grid boundary."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


# --- feedback ---

class FactorMismatch(WignerLabError):
    pass


class NonHermitianInput(WignerLabError):
    pass


class DimensionCap(WignerLabError):
    pass


# --- config / io ---

class SchemaViolation(WignerLabError):
    """Carries every violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{path}: {reason}" for path, reason in self.violations)
        super().__init__(f"invalid config ({len(self.violations)} violation(s)): {lines}")


class UnknownVersion(WignerLabError):
    pass


class IoFailure(WignerLabError):
    pass
