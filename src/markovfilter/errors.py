"""Exception types raised by the estimation pipeline."""

from __future__ import annotations


class MarkovFilterError(Exception):
    """Base class for all errors raised by this package."""


class ChainTooShortError(MarkovFilterError, ValueError):
    """A chain is shorter than the operation requires: a bad input, so the
    CLI exits with the parse code."""


class ZeroRowTotalError(MarkovFilterError):
    """A count matrix row sums to zero, so the row cannot be normalized."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"state {row} never occurs as a transition source")


class ConsistencyError(MarkovFilterError):
    """No complete chain can produce the given filtered pattern.

    ``position`` is the 0-based index of the first offending symbol and
    ``rule`` names the violated check.
    """

    def __init__(self, position: int, rule: str):
        self.position = position
        self.rule = rule
        super().__init__(f"inconsistent pattern at position {position}: {rule}")


class ZeroDenominatorError(MarkovFilterError):
    """A gap's unobserved-path probability is zero under the current
    parameters, so the conditional expectation is undefined (the data are
    impossible under this parameter value / support)."""


class NonFiniteError(MarkovFilterError):
    """The observed log-likelihood degenerated to a non-finite value."""


class RowNotConvergedError(MarkovFilterError):
    """Some forced-iteration rows of the EM-map Jacobian did not converge."""

    def __init__(self, rows):
        self.rows = tuple(int(r) for r in rows)
        super().__init__(
            f"Jacobian rows {self.rows} not converged within the iteration budget"
        )


class SingularUpdateError(MarkovFilterError):
    """I minus the EM-map Jacobian is singular; the observed covariance
    cannot be formed."""


class SingularCovarianceError(MarkovFilterError):
    """A covariance matrix is not positive definite: that of a test
    statistic, or V_obs at an estimate that is not a local maximum."""


class NonPositiveVarianceError(MarkovFilterError):
    """A variance used for a z statistic or interval is not positive."""


class BudgetExceededError(MarkovFilterError):
    """An enumeration oracle would enumerate more than ``oracle.BUDGET`` chains."""


class EmptyCompletionSetError(MarkovFilterError):
    """No completion of the pattern exists, so conditional expectations are
    undefined."""


class FileFormatError(MarkovFilterError):
    """A chain/matrix/report file does not parse."""

    def __init__(self, path, message: str, line: int | None = None, column: int | None = None):
        self.path = str(path)
        self.line = line
        self.column = column
        where = self.path
        if line is not None:
            where += f":{line}"
            if column is not None:
                where += f":{column}"
        super().__init__(f"{where}: {message}")
