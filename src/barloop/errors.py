"""Shared exception types, and the report that law checks return.

Every failure mode that a caller can reasonably branch on gets its own
class; all inherit from BarloopError so blanket handling stays possible.
"""

__all__ = [
    "ValidationReport",
    "BarloopError",
    "WindowTooSmall",
    "MalformedTable",
    "NotReduced",
    "NotCoaugmented",
    "InfiniteRank",
    "NotConnected",
    "NotSimplyConnected",
    "NotACycle",
    "Unorientable",
    "CapExceeded",
    "MismatchAt",
    "NotAHomomorphism",
]


class ValidationReport:
    """List of law violations; empty means valid."""

    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, violations={self.violations!r})"


class BarloopError(Exception):
    """Base class for all package-specific errors."""


class WindowTooSmall(BarloopError):
    """A degree window 0..hi with hi <= 0 was supplied."""


class MalformedTable(BarloopError):
    """A multiplication table fails associativity or identity axioms."""


class NotReduced(BarloopError):
    """The simplicial set has more than one vertex."""


class NotCoaugmented(BarloopError):
    """No group-like coaugmentation element is available in degree 0."""


class InfiniteRank(BarloopError):
    """A degree of a bar window has more basis elements than the cap
    allows, possibly infinitely many, so the window cannot be built."""


class NotConnected(BarloopError):
    """The augmented algebra has rank > 1 in degree 0."""


class NotSimplyConnected(BarloopError):
    """The coaugmented coalgebra has reduced elements in degree 1."""


class NotACycle(BarloopError):
    """An element that must be a cycle has nonzero differential."""


class Unorientable(BarloopError):
    """A relation cannot be oriented into a terminating rewrite rule."""


class CapExceeded(BarloopError):
    """More words than the cap allows, possibly infinitely many.  For
    irreducible monomials this is decided by counting, before any word
    is listed."""


class MismatchAt(BarloopError):
    """A structure comparison failed; arguments say where."""

    def __init__(self, message, degree=None, element=None):
        super().__init__(message)
        self.degree = degree
        self.element = element


class NotAHomomorphism(BarloopError):
    """A claimed ring map does not kill the source relations."""
