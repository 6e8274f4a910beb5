"""Exception types shared across the package."""


class PbpError(Exception):
    """Base class for all package-specific errors."""


class FormatError(PbpError):
    """An input file is malformed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(PbpError, ValueError):
    """A configuration value is out of range or otherwise unusable."""


class EmptyInputError(PbpError):
    """An operation that requires non-empty text received an empty string."""


class DegenerateDataError(PbpError):
    """Training data does not contain at least two distinct labels."""


class EmptySlotError(PbpError):
    """A majority baseline needs at least one gold value per slot."""


class AlignmentError(PbpError):
    """Prediction and gold sequences have mismatched lengths."""


class DomainError(PbpError):
    """A numeric argument lies outside its mathematical domain."""


class DegenerateInputError(PbpError):
    """A statistic is undefined for the given input (e.g. constant vector)."""


class TooFewRatersError(PbpError):
    """An agreement statistic needs at least two ratings per item."""
