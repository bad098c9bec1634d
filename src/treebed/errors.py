"""Exception types shared across the package, and the default budget."""

# Label partitions an exhaustive search may evaluate unless told otherwise:
# about 6 s at some 2 us a partition, enough for every n = 4 shape.  The
# library and ``sweep`` both refuse through ``search._check_budget``, which
# stops counting once a count over 256 labels passes the budget.
DEFAULT_PARTITION_BUDGET = 3_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would evaluate more candidates than the caller allowed."""


class CoverageError(RuntimeError):
    """A cut family does not cover every host edge the same number of times."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
