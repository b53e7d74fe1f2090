"""Exception types shared across the package.

Input the package rejects raises the builtin `ValueError` wherever it is
checked; these classes are the failures left once the input is accepted.
"""


class NvctrlError(Exception):
    """Base class for all package-specific errors."""


class NoConvergence(NvctrlError):
    """Iterative fit did not converge."""


class InvariantViolation(NvctrlError):
    """A computed propagator or state broke unitarity, unit trace or Hermiticity."""
