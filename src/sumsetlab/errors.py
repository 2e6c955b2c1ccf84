"""Exception hierarchy, the bit budget, and the one reader of integer text from outside.

Every integer written as text outside the package (an option, ``--x``, a grid
entry, a JSON number or string, an environment variable) is read here, by
``json_int``, and text past the bit budget is refused before it is read, a value
past it once it is read. ``serialize`` only writes.

Each exit code has one error class, which carries that code and the label
of the CLI's stderr line. A ConfigError (malformed input, an inapplicable
operation, a bad covering system) exits with 2 as "config error: ...", a
CapacityError (a budget or cap reached) with 3 as "capacity error: ...", and
a ClaimError (a certified inequality or counting invariant that failed) with
4 as "claim error: ...". Any other exception is a bug and keeps its traceback.
"""

import re

# Largest integer the library will materialize, in bits.
DEFAULT_BIT_BUDGET = 1_000_000
# Longest decimal text read as an integer. A d-digit value is at least 10^(d-1) > 2^(3(d-1)),
# so a longer text is past the bit budget; refusing it first bounds what int() reads.
MAX_DECIMAL_DIGITS = DEFAULT_BIT_BUDGET // 3 + 2
_SPLIT_DIGITS = 1024  # integer text longer than this is read in pieces
_INT_TEXT = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")  # what int() reads in base 10
_EXPR_RE = re.compile(r"^\s*(?:(\d+)|2\^(\d+)|2\^\(2\^(\d+)\))\s*$")  # parse_power_expr's forms

__all__ = ["SumsetLabError", "ConfigError", "CapacityError", "ClaimError"]


class SumsetLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SumsetLabError, ValueError):
    """Malformed input, an inapplicable operation or a bad covering system; a ValueError."""
    exit_code, kind = 2, "config"


class CapacityError(SumsetLabError):
    """A materialization depth, bit budget, or enumeration budget was exceeded."""
    exit_code, kind = 3, "capacity"


class ClaimError(SumsetLabError):
    """A certified inequality or a counting invariant failed: a refuted claim or a bug."""
    exit_code, kind = 4, "claim"


def at_least(name: str, value: int, minimum: int, shown: str | None = None) -> int:
    """``value``, or ConfigError "name must be >= minimum, got value"; ``shown`` names minimum."""
    if value < minimum:
        raise ConfigError(f"{name} must be >= {shown or minimum}, got {text_name(value)}")
    return value


def json_int(value, what: str) -> int:
    """An int, or text that ``text_int`` reads; anything else raises ConfigError naming the value.

    Text past MAX_DECIMAL_DIGITS or a value past DEFAULT_BIT_BUDGET bits raises CapacityError;
    a bool, a float, null, a list, an object or other text raises through ``text_name``.
    """
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            number = text_int(value, what) if isinstance(value, str) else int(value)
        except ValueError:
            pass
        else:
            if number.bit_length() > DEFAULT_BIT_BUDGET:
                raise CapacityError(f"{what} of {number.bit_length()} bits exceeds the "
                                    f"{DEFAULT_BIT_BUDGET}-bit budget")
            return number
    raise ConfigError(f"{what} must be an integer, got {text_name(value)}")


def parse_power_expr(text: str | int) -> int:
    """Parse "12345", "2^k", or "2^(2^k)" into an exact integer; other values go to ``json_int``.

    Raises:
        ConfigError: the text matches none of the three forms, or the value is no integer.
        CapacityError: the digits, the value or the power would exceed DEFAULT_BIT_BUDGET bits.
    """
    over = f"exceeds the {DEFAULT_BIT_BUDGET}-bit budget"
    if not isinstance(text, str):
        return json_int(text, "integer expression")
    match = _EXPR_RE.match(text)
    if not match:
        raise ConfigError(f"cannot parse integer expression {text_name(text)}")
    decimal, single, tower = match.groups()
    value = json_int(decimal or single or tower, "decimal literal")
    if decimal is not None:
        return value
    if single is not None:
        if value >= DEFAULT_BIT_BUDGET:
            raise CapacityError(f"2^e with {int_name('e', value)} {over}")
        return 1 << value
    if value > 60 or (1 << value) >= DEFAULT_BIT_BUDGET:
        raise CapacityError(f"2^(2^e) with {int_name('e', value)} {over}")
    return 1 << (1 << value)


def _join(parts: list, power):
    """parts[0] + parts[1] * power + parts[2] * power^2 + ..., adding up pairs level by level."""
    while len(parts) > 1:
        parts = [lo + hi * power for lo, hi in zip(parts[::2], parts[1::2] + [0])]
        power = power * power if len(parts) > 1 else power
    return parts[0]


def text_int(text: str, what: str) -> int:
    """int(text) in base 10 at any length, in quasi-linear time; ValueError where int() fails.

    Text longer than MAX_DECIMAL_DIGITS raises CapacityError naming ``what`` before it is read.
    """
    if len(text) > MAX_DECIMAL_DIGITS:
        raise CapacityError(f"{what} of {len(text)} digits exceeds the "
                            f"{DEFAULT_BIT_BUDGET}-bit budget")
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
