"""Exception types shared across the package, and the default budget."""

# Label partitions an exhaustive search may evaluate unless told otherwise.
DEFAULT_PARTITION_BUDGET = 100_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would evaluate more candidates than the caller allowed."""


class CoverageError(RuntimeError):
    """A cut family does not cover every host edge the same number of times."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
