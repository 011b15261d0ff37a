"""Exception types shared across the package.

A malformed call raises ``ValueError`` for a malformed argument of the call
itself (a depth below 1, an empty family), :class:`DomainError` for a base
point, point, component or set outside its structure,
:class:`IncompatibleSystemsError` for objects over different bases, and
:class:`PreconditionError` for a named hypothesis (invariance, exact
weights, measure size).
"""


class RdstailError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RdstailError):
    """A state, point, or set lies outside the structure it must belong to."""


class IncompatibleSystemsError(RdstailError):
    """Two objects built over different base systems were combined."""


class PreconditionError(RdstailError):
    """A named mathematical precondition of an operation failed.

    Carries ``name`` so callers can distinguish which hypothesis broke.
    """

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        super().__init__(f"precondition {name!r} failed" + (f": {detail}" if detail else ""))


class BudgetExceededError(RdstailError):
    """A configured desk-scale budget was exceeded.

    This signals a resource limit, never a mathematical falsity.  ``observed``
    and ``limit`` describe how far past the budget the computation went;
    ``depth`` is set when a depth-indexed computation identifies the offending
    step.
    """

    def __init__(self, budget: str, limit: int, observed: int, depth: int | None = None):
        self.budget = budget
        self.limit = limit
        self.observed = observed
        self.depth = depth
        at = f" at depth n={depth}" if depth is not None else ""
        super().__init__(f"budget {budget!r} exceeded{at}: observed {observed} > limit {limit}")
