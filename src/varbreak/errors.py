"""Exception types shared across the package."""


class VarbreakError(Exception):
    """Base class for all varbreak errors."""


class WindowBoundsError(VarbreakError):
    """Analysis window does not fit inside the series."""


class DegenerateSeriesError(VarbreakError):
    """Squared residuals are all zero; the statistic is undefined."""


class ZeroDispersionError(VarbreakError):
    """Squared residuals have no dispersion; the normalizer is zero."""


class SingularDesignError(VarbreakError):
    """Regression design matrix is rank deficient."""


class NonpositiveVarianceError(VarbreakError):
    """Fitted variance profile is not positive over the analysis window."""


class ExperimentIntegrityError(VarbreakError):
    """Too many replications failed for the experiment to be trusted."""


class CsvParseError(VarbreakError):
    """A CSV header or row could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DateOrderError(VarbreakError):
    """Observation dates are not strictly increasing."""
