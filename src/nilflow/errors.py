"""Exception hierarchy.

ValidationError covers malformed or inconsistent input data (bad shapes,
non-skew entries, indefinite metrics, unparseable problem files) and maps to
CLI exit code 2.  NumericalError covers runtime failures of the numerics
(step underflow, unexpected blowup, structure-residual violations along a
trajectory) and maps to exit code 3.  I/O failures are left to the builtin
OSError family and map to exit code 4.
"""

__all__ = ["NilflowError", "NumericalError", "ValidationError"]


class NilflowError(Exception):
    """Base class for all library-raised errors."""


class ValidationError(NilflowError):
    """Input data failed validation."""


class NumericalError(NilflowError):
    """A numerical procedure failed or left its guaranteed regime."""
