"""Exception types shared across the package."""


class NvctrlError(Exception):
    """Base class for all package-specific errors."""


class DegenerateAxis(NvctrlError):
    """Nuclear quantization axis undefined (both arctangent arguments zero)."""


class BadGrid(NvctrlError):
    """Frequency or time grid is empty or not strictly increasing."""


class DimensionMismatch(NvctrlError):
    """Operator or state has the wrong dimension for this operation."""


class BadGenomeLength(NvctrlError):
    """Genome vector length does not match the control problem layout."""


class UnknownTarget(NvctrlError):
    """Target name not in the built-in library."""


class ZeroPurity(NvctrlError):
    """State purity too small for a normalized fidelity."""


class NonuniformGrid(NvctrlError):
    """Operation requires uniformly spaced samples."""


class NoConvergence(NvctrlError):
    """Iterative fit did not converge."""


class NonPositiveInput(NvctrlError):
    """Input that must be positive was zero or negative."""


class InvariantViolation(NvctrlError):
    """A computed propagator or state broke unitarity, unit trace or Hermiticity."""
