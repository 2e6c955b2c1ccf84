"""Exception hierarchy and the JSON integer check shared across the package.

The CLI maps these onto distinct exit codes: configuration problems
(bad expressions, malformed input files, inapplicable operations) exit
with 2, capacity/budget violations with 3.
"""


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

    A decimal string converts; a list, an object or null raises int()'s TypeError.
    """
    if isinstance(value, (bool, float)):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)
