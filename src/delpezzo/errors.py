"""Exception hierarchy with stable error codes.

Two error families matter to callers: ``EquationError`` (the input text is not
a weighted-degree-6 expression; CLI exit 1) and ``InvalidSurfaceError`` (the
equation parsed but does not define a du Val del Pezzo surface of degree 1;
CLI exit 2).  Everything else signals misuse of the library API or a broken
internal invariant.
"""

from __future__ import annotations


class DelPezzoError(Exception):
    """Base class for every error raised by this package."""

    code = "error"


class EquationError(DelPezzoError):
    """Input text could not be read as a hypersurface equation."""

    code = "syntax"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariableError(EquationError):
    code = "unknown-variable"


class NotHomogeneousError(EquationError):
    """A monomial has weighted degree != 6 under weights (x,y,z,w)=(1,1,2,3),
    or a product or power in the input exceeds the parser's degree limit."""

    code = "not-homogeneous"


class InvalidSurfaceError(DelPezzoError):
    """Equation parsed but does not define a degree-1 du Val del Pezzo surface."""

    code = "invalid-surface"


class MissingSquareTermError(InvalidSurfaceError):
    """No w^2 term: the sextic is not in del Pezzo normal form."""

    code = "missing-w2"


class MissingCubeTermError(InvalidSurfaceError):
    """No z^3 term: the sextic is not in del Pezzo normal form."""

    code = "missing-z3"


class ZeroDiscriminantError(InvalidSurfaceError):
    """The discriminant vanishes identically: not an elliptic fibration."""

    code = "zero-discriminant"


class NonMinimalError(InvalidSurfaceError):
    """A place divides f4 to order >= 4 and f6 to order >= 6: not du Val."""

    code = "non-minimal"

    def __init__(self, message: str, place=None):
        super().__init__(message)
        self.place = place


class InconsistentValuationError(DelPezzoError):
    """A valuation triple (v4, v6, vD) cannot come from an actual pair (f4, f6)."""

    code = "inconsistent-valuations"


class InternalInvariantError(DelPezzoError):
    """A cross-check that should hold for every accepted input failed."""

    code = "internal"


class TableMismatchError(DelPezzoError):
    """Regenerated reference-table content disagrees with the stored table."""

    code = "table-mismatch"


class ZeroFormError(ValueError):
    """Operation undefined on the identically-zero form."""
