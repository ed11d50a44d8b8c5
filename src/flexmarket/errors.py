"""Exception types shared across the package."""


class FlexmarketError(Exception):
    """Base class for all package errors."""


class MalformedConfig(FlexmarketError):
    """Structurally invalid market configuration (bad PMF, empty grid, ...)."""


class OffGridValue(FlexmarketError):
    """A valuation was supplied that does not lie on the configured grid."""


class NoNonnegativePoint(FlexmarketError):
    """Virtual valuation is negative on the whole grid; no reserve price exists."""


class NoSolution(FlexmarketError):
    """No grid point reaches the requested virtual-valuation target."""


class InfeasibleU(FlexmarketError):
    """Service vector violates the cumulative-supply feasibility constraints."""


class StateSpaceTooLarge(FlexmarketError):
    """Exact backward induction would exceed the enumeration budget."""


class BudgetExceeded(FlexmarketError):
    """Brute-force enumeration would exceed its matrix budget."""


class TableMismatch(FlexmarketError):
    """Value tables were built for a different configuration."""


class InconsistentAllocation(FlexmarketError):
    """A served consumer's critical value exceeds its report (monotonicity bug)."""


class NotApplicable(FlexmarketError):
    """The variety-shift transformation has reached its fixed point."""
