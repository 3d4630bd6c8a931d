"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and usage
problems exit with 2, numerical divergence with 3, and file or parse
problems with 4.
"""


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
