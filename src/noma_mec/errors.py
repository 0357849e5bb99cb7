"""Exception types shared across the package."""


class NomaMecError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveParameter(NomaMecError, ValueError):
    """A parameter that must be positive (or nonnegative) is not."""


class DeadlineOrderViolation(NomaMecError, ValueError):
    """Scenario deadlines are not ordered d_m <= d_n."""


class TimeExtensionOutOfRange(NomaMecError, ValueError):
    """A time extension / slot length lies outside its admissible interval."""


class ConfigError(NomaMecError):
    """Problem with a scenario configuration source. ``key`` names the offender."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


class MissingKey(ConfigError):
    """A required scenario parameter was provided neither on the command line nor in the file."""


class TypeMismatch(ConfigError):
    """A scenario parameter has the wrong type (for example a string where a number is needed)."""


class FileUnreadable(ConfigError):
    """The scenario file cannot be opened or parsed. ``key`` holds the path."""
