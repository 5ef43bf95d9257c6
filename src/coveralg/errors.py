"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class ZeroIdealColon(ValueError):
    """Colon or saturation by the zero ideal is undefined."""


class NonSquarefreeIdeal(ValueError):
    """Operation requires every generator to have 0/1 exponents."""


class InvalidComplex(ValueError):
    """Raw complex data violates an invariant (see message for which)."""


class NotAGraph(InvalidComplex):
    """Complex has a facet that is not a 2-element vertex set."""


class SearchBudgetExceeded(RuntimeError):
    """Exhaustive search space exceeds the configured budget."""

    def __init__(self, size: int, budget: int):
        super().__init__(f"search space of size {size} exceeds budget {budget}")
        self.size = size
        self.budget = budget


class TruncatedPresentation(ValueError):
    """Degree-capped generator list cannot answer a global question."""
