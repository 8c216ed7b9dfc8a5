"""Exception types shared across the package, and the one range check of a numeric setting."""


class FedclustError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(FedclustError, ValueError):
    """Dimension or shape mismatch between arrays, models, or specs."""


class NumericError(FedclustError, ArithmeticError):
    """Non-finite values or numerically undefined quantities (e.g. zero-norm cosine)."""


class ConfigError(FedclustError, ValueError):
    """Invalid configuration value or schema violation."""


class SizeError(FedclustError, ValueError):
    """Not enough data for the requested operation (e.g. k > n)."""


class ContractError(FedclustError, ValueError):
    """Caller violated a documented precondition."""


class StateError(FedclustError, RuntimeError):
    """Operation invoked with missing or stale cached state."""


class FormatError(FedclustError, ValueError):
    """Malformed file content; message carries the byte offset where parsing failed."""


class ProtocolError(FedclustError, RuntimeError):
    """Federation protocol invariant violated (e.g. aggregating zero clients)."""


class MetricError(FedclustError, ValueError):
    """Metric undefined for the given inputs (e.g. single-cluster dispersion ratio)."""


def at_least(name: str, value, lo) -> None:
    """Raise ConfigError unless lo <= value < inf, so NaN and infinity fail too."""
    if not lo <= value < float("inf"):
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
