"""Exception types shared across the package, and its one integer rule.

The CLI maps these onto process exit codes: configuration and usage
problems exit with 2, numerical divergence with 3, and file or parse
problems with 4.
"""

import numpy as np


class ConfigError(ValueError):
    """A configuration value is out of bounds or flags are inconsistent."""


class ShapeError(ValueError):
    """Array operands have inconsistent dimensions."""


class NumericDomainError(ArithmeticError):
    """A formula left its real domain, e.g. a negative radicand."""


class DivergenceError(RuntimeError):
    """An iterate or chain state became non-finite."""


class ParseError(ValueError):
    """A file does not parse or lacks a required field."""


class SchemaError(ParseError):
    """A parsed file is internally inconsistent or mismatches the request."""


class InsufficientDataError(ValueError):
    """Too few samples to compute the requested statistic."""


def is_integer(value: object) -> bool:
    """Whether a count, size or seed is an integer, Python's or numpy's.
    A bool is refused although Python counts it as an int, and so is a
    float, however integral: neither is converted."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integer(name: str, value: object) -> None:
    """Raise ``ConfigError`` unless ``value`` passes ``is_integer``."""
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
