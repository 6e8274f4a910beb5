"""The package's three exception types, each a data error (CLI exit 2):
``FormatError`` for a bad input file, ``ConfigError`` for a setting out of
range, and their base ``PbpError`` for any other, such as a statistic
undefined for its input."""


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
