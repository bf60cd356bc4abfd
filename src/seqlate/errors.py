"""Exception types shared across the package.

Every error raised by library code derives from SeqlateError so callers can
catch package failures with one handler.  Classes double-inherit from the
closest builtin category (ValueError, LookupError, ArithmeticError) so that
generic code treating them as plain Python errors keeps working.
"""


class SeqlateError(Exception):
    """Base class for all package errors."""


class InvariantViolation(SeqlateError, ValueError):
    """A value type was constructed in a state its contract forbids."""


class MonotonicityViolation(SeqlateError, ValueError):
    """Treatment receipt pattern (w_at_z0=1, w_at_z1=0) has no admissible type."""


class UndefinedCell(SeqlateError, LookupError):
    """Arithmetic was attempted on a potential-outcome cell that does not exist."""


class NoCompliers(SeqlateError):
    """An estimand over compliers was requested but the sample has none."""


class InvalidConfig(SeqlateError, ValueError):
    """A configuration value violates its documented constraint."""


class DimensionMismatch(SeqlateError, ValueError):
    """Vector lengths disagree with the covariate dimension."""


class InconsistentUnit(SeqlateError, ValueError):
    """A unit's assignment/receipt pattern admits no compliance type."""


class NumericalOverflow(SeqlateError, ArithmeticError):
    """A log-density became non-finite, typically a divergent proposal."""


class TooFewDraws(SeqlateError, ValueError):
    """Not enough draws to compute the requested summary."""


class EmptyArm(SeqlateError, ValueError):
    """A contrast arm contains no units."""


class TooLarge(SeqlateError, ValueError):
    """Exhaustive enumeration would exceed its budget, or buffers do not fit in memory."""


class SchemaError(SeqlateError, ValueError):
    """A data file's header or overall shape does not match the contract."""


class DataError(SeqlateError, ValueError):
    """A data row holds a value outside its domain."""


class ParseError(SeqlateError, ValueError):
    """A config file could not be parsed."""


class UnknownKey(ParseError):
    """A config file names a section or key the schema does not define."""
