"""Exception types and process exit codes shared across the package."""


class DistillLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DistillLabError):
    """Invalid configuration file, key, or value."""


class DivergenceError(DistillLabError):
    """A numerical computation produced non-finite values."""


class DegenerateTimestepError(DistillLabError):
    """A posterior step with zero noise scale was requested where noise is required."""


class MismatchError(DistillLabError):
    """A checkpoint file is unreadable, or a checkpoint or an inverted latent
    sequence does not fit the schedule or grid it is used with."""


EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGENCE = 3
EXIT_CHECK_FAILED = 4
