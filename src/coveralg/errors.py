"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class InvalidComplex(ValueError):
    """Raw complex data violates an invariant (see message for which)."""


class NotAGraph(InvalidComplex):
    """Complex has a facet that is not a 2-element vertex set."""


class InternalError(RuntimeError):
    """An internal invariant failed: a bug in the package, never bad input."""


class TruncatedPresentation(ValueError):
    """Degree-capped generator list cannot answer a global question."""
