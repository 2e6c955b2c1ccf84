"""Exception hierarchy, the bit budget and the integer checks shared across the package.

The CLI maps these onto distinct exit codes: configuration problems
(bad expressions, malformed input files, inapplicable operations) exit
with 2, capacity/budget violations with 3.
"""

# Largest integer the library will materialize, in bits.
DEFAULT_BIT_BUDGET = 1_000_000
# Longest decimal text read as an integer. A d-digit value is at least 10^(d-1) > 2^(3(d-1)),
# so a longer text is past the bit budget; refusing it first bounds what int() reads.
MAX_DECIMAL_DIGITS = DEFAULT_BIT_BUDGET // 3 + 2


class SumsetLabError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(SumsetLabError):
    """A materialization depth, bit budget, or enumeration budget was exceeded."""


class InapplicableError(SumsetLabError):
    """The operation's precondition (schedule kind, block index range) is not met."""


class ConfigError(SumsetLabError):
    """Malformed CLI input, expression, or experiment configuration."""


class MalformedSystemError(SumsetLabError):
    """A covering system violates its structural invariants."""


class NotCoveringError(SumsetLabError):
    """A residue system does not cover all integers, so no certificate exists."""


class CRTError(SumsetLabError):
    """Chinese-remainder combination failed (non-coprime moduli)."""


def json_int(value, what: str, error: type[SumsetLabError]) -> int:
    """int(value), but a float or a bool raises ``error`` rather than truncate or overflow.

    A decimal string converts, and one longer than MAX_DECIMAL_DIGITS raises
    ``error`` before int() reads it; a list, an object or null raises int()'s TypeError.
    """
    if isinstance(value, (bool, float)):
        raise error(f"{what} must be an integer, got {value!r}")
    if isinstance(value, str) and len(value) > MAX_DECIMAL_DIGITS:
        raise error(f"{what} of {len(value)} digits exceeds the {DEFAULT_BIT_BUDGET}-bit budget")
    return int(value)


def int_name(name: str, value: int) -> str:
    """How a message names a user-sized integer: "x=1024", or "x of 20001 bits" past 64 bits.

    Decided by size, so no message spells out an integer of up to 333,335 digits.
    A negative value past 64 bits keeps its sign: "negative x of 20001 bits".
    """
    bits = value.bit_length()
    if bits <= 64:
        return f"{name}={value}"
    return f"{'negative ' if value < 0 else ''}{name} of {bits} bits"


def text_name(value) -> str:
    """How a message shows an outside value: its repr, or its type and length past 64 characters.

    "'2^x'", or "a str of length 5001", "a list of length 3", "an int of 20001 bits";
    so no message echoes a whole argument, file field or environment variable.
    """
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an int of {value.bit_length()} bits"
    shown = repr(value)
    if len(shown) <= 64:
        return shown
    size = len(value) if isinstance(value, (str, list, tuple, dict)) else len(shown)
    return f"a {type(value).__name__} of length {size}"
