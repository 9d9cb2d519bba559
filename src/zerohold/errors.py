"""Exception hierarchy shared across the package.

Split along the lines the command line tool needs: input problems (bad files,
bad specs, violated preconditions), numeric failures (singular systems,
non-converging iterations), and infeasible sampling plans.
"""

__all__ = [
    "InfeasibleError",
    "IterationError",
    "NumericError",
    "ParseError",
    "PreconditionError",
    "SingularMatrixError",
    "SpecError",
    "SpecValidationError",
    "ZeroholdError",
]


class ZeroholdError(Exception):
    """Base class for all package errors."""


class SpecError(ZeroholdError):
    """Invalid input: malformed file, invalid chain, violated precondition."""


class ParseError(SpecError):
    """A chain-spec document could not be parsed."""


class SpecValidationError(SpecError):
    """A structurally parsed chain violates validity rules."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"[{tag}] {msg}" for tag, msg in self.violations)
        super().__init__(f"invalid chain spec: {lines}")


class PreconditionError(SpecError):
    """An operation was called outside its documented domain."""


class NumericError(ZeroholdError):
    """A numeric routine failed to produce a trustworthy result."""


class SingularMatrixError(NumericError):
    """Elimination hit a pivot too small to divide by."""

    def __init__(self, pivot, column=None):
        self.pivot = float(pivot)
        self.column = column
        where = f" in column {column}" if column is not None else ""
        super().__init__(f"singular linear system: pivot magnitude {self.pivot:.3e}{where}")


class IterationError(NumericError):
    """An iterative solver ran out of iterations before reaching tolerance."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class InfeasibleError(ZeroholdError):
    """A sampling plan cannot deliver the requested result (e.g. acceptance ~ 0)."""
