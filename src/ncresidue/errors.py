"""Exception types shared across the engine.

Every failure mode that callers are expected to handle gets its own class,
so tests can assert on the exact condition rather than on message text.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class DivisionByZero(EngineError, ZeroDivisionError):
    """Exact division by a zero scalar."""


class AlphabetMismatch(EngineError):
    """Operands built over different parameter alphabets."""


class UnboundParameter(EngineError):
    """Evaluation assignment is missing a parameter; names the symbol."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"no value bound for parameter {name!r}")


class DimMismatch(EngineError):
    """Clifford operands of different dimension."""


class OddDimension(EngineError):
    """Even dimension required."""


class OddBarDimension(EngineError):
    """Even boundary dimension required."""


class UnsupportedDimension(EngineError):
    """Dimension outside the supported range."""


class IndexOutOfRange(EngineError):
    """Frame index outside 1..n."""


class NonIncreasingTriple(EngineError):
    """Torsion triple indices must be strictly increasing."""


class NonAntisymmetricTorsion(EngineError):
    """Torsion components supplied in a non-canonical (non-triple) way."""


class NonCanonicalInput(EngineError):
    """Rational function not in canonical (fully cancelled) form."""


class NotIntegrable(EngineError):
    """Integrand does not decay fast enough for a real-line integral."""


class ParseError(EngineError):
    """Config text could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)


class ValidationError(EngineError):
    """Config value failed validation; names the field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def is_int(value):
    """An integer that is not a bool (YAML reads true/false as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(field, value, nonnegative=False, by_type=False):
    """The engine's one "an int, not a bool" check: ValidationError for field
    unless value is one (and >= 0 if nonnegative), showing it or its type."""
    if not is_int(value) or nonnegative and value < 0:
        got = type(value).__name__ if by_type else repr(value)
        kind = "nonnegative integer" if nonnegative else "integer"
        raise ValidationError(field, f"{kind} required, got {got}")
