"""Exception hierarchy, the bit budget, and integer checks and text shared across the package.

Each error class carries the exit code the CLI ends with. A ConfigError
(malformed input, an inapplicable operation, a bad covering system) exits
with 2, a CapacityError (a budget or cap reached) with 3, and a
ClaimError (a certified inequality or counting invariant that failed)
with 4. Any other exception is a bug and keeps its traceback.
"""

import re

# Largest integer the library will materialize, in bits.
DEFAULT_BIT_BUDGET = 1_000_000
# Longest decimal text read as an integer. A d-digit value is at least 10^(d-1) > 2^(3(d-1)),
# so a longer text is past the bit budget; refusing it first bounds what int() reads.
MAX_DECIMAL_DIGITS = DEFAULT_BIT_BUDGET // 3 + 2
_SPLIT_DIGITS = 1024  # integer text longer than this is read in pieces
_INT_TEXT = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")  # what int() reads in base 10


class SumsetLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SumsetLabError, ValueError):
    """Malformed input, expression or configuration; a ValueError, as the range checks were."""
    exit_code = 2


class InapplicableError(ConfigError):
    """The operation's precondition (schedule kind, block index range) is not met."""


class MalformedSystemError(ConfigError):
    """A covering system violates its structural invariants."""


class NotCoveringError(ConfigError):
    """A residue system does not cover all integers, so no certificate exists."""


class CapacityError(SumsetLabError):
    """A materialization depth, bit budget, or enumeration budget was exceeded."""
    exit_code = 3


class ClaimError(SumsetLabError):
    """A certified inequality or a counting invariant failed: a refuted claim or a bug."""
    exit_code = 4


def at_least(name: str, value: int, minimum: int, shown: str | None = None) -> int:
    """``value``, or ConfigError "name must be >= minimum, got value"; ``shown`` names minimum."""
    if value < minimum:
        raise ConfigError(f"{name} must be >= {shown or minimum}, got {text_name(value)}")
    return value


def json_int(value, what: str, error: type[SumsetLabError]) -> int:
    """An int, or text that int() reads; anything else raises ``error`` naming the value.

    Text longer than MAX_DECIMAL_DIGITS raises before ``text_int`` reads it; a bool,
    a float, null, a list, an object or other text raises through ``text_name``.
    """
    if isinstance(value, str) and len(value) > MAX_DECIMAL_DIGITS:
        raise error(f"{what} of {len(value)} digits exceeds the {DEFAULT_BIT_BUDGET}-bit budget")
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return text_int(value) if isinstance(value, str) else int(value)
        except ValueError:
            pass
    raise error(f"{what} must be an integer, got {text_name(value)}")


def _join(parts: list, power):
    """parts[0] + parts[1] * power + parts[2] * power^2 + ..., adding up pairs level by level."""
    while len(parts) > 1:
        parts = [lo + hi * power for lo, hi in zip(parts[::2], parts[1::2] + [0])]
        power = power * power if len(parts) > 1 else power
    return parts[0]


def text_int(text: str) -> int:
    """int(text) in base 10 at any length, in quasi-linear time; ValueError where int() fails."""
    match = len(text) > _SPLIT_DIGITS and _INT_TEXT.fullmatch(text)
    if not match:
        return int(text)
    digits, size = match[2].replace("_", ""), _SPLIT_DIGITS
    parts = [int(digits[max(end - size, 0) : end]) for end in range(len(digits), 0, -size)]
    return (-1 if match[1] == "-" else 1) * _join(parts, 10**size)


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

    "'2^x'", or "a str of length 5001", "a list of length 3", "an int of 20001 bits",
    "a negative int of 16610 bits"; so no message echoes a whole argument, file field,
    environment variable or value computed from one. An int of up to 64 bits reads as str().
    """
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    shown = repr(value)
    if len(shown) <= 64:
        return shown
    size = len(value) if isinstance(value, (str, list, tuple, dict)) else len(shown)
    return f"a {type(value).__name__} of length {size}"
