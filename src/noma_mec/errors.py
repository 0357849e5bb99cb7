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
    """A config file is unreadable, or an option is missing or mistyped; the message names which."""
