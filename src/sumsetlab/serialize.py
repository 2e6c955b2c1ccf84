"""Report serialization: deterministic JSON payloads and lossy-marked CSV.

Also the two ends every run shares: ``parse_power_expr`` reads integer
arguments under the library's bit budget, and ``result_record`` wraps a
payload into the record the CLI and the experiments emit.

Exact rationals always serialize as {"num": ..., "den": ...} decimal
strings, so no precision is laundered through floats; integers stay
JSON integers (arbitrary precision survives a round trip). Integer text
goes through plain int() and str(): a CLI run lifts CPython's int<->str
digit limit around its handler and output, and outside one they follow
the interpreter's limit like any Python int. CSV rows render rationals
as 15-significant-digit decimals and carry an explicit marker column
saying whether anything in the row was rounded.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from ._version import __version__
from .errors import DEFAULT_BIT_BUDGET, MAX_DECIMAL_DIGITS, CapacityError, ConfigError

if TYPE_CHECKING:
    from .depolignac import CoverCheck, CoveringSystem

__all__ = [
    "DEFAULT_BIT_BUDGET",
    "parse_power_expr",
    "result_record",
    "fraction_payload",
    "fraction_from_payload",
    "decimal15",
    "payload_json",
    "report_payload",
    "covering_payload",
    "rows_to_csv",
    "payload_csv",
]

_EXPR_RE = re.compile(r"^\s*(?:(\d+)|2\^(\d+)|2\^\(2\^(\d+)\))\s*$")


def parse_power_expr(text: str | int) -> int:
    """Parse "12345", "2^k", or "2^(2^k)" into an exact integer.

    Raises:
        ConfigError: the text matches none of the three forms.
        CapacityError: the value would exceed DEFAULT_BIT_BUDGET bits.
    """
    over = f"exceeds the {DEFAULT_BIT_BUDGET}-bit budget"
    if isinstance(text, int):
        if text.bit_length() > DEFAULT_BIT_BUDGET:
            raise CapacityError(f"integer {over}")
        return text
    match = _EXPR_RE.match(str(text))
    if not match:
        raise ConfigError(f"cannot parse integer expression {text!r}")
    decimal, single, tower = match.groups()
    if len(decimal or single or tower) > MAX_DECIMAL_DIGITS:
        raise CapacityError(f"decimal literal {over}")
    if decimal is not None:
        value = int(decimal)
        if value.bit_length() > DEFAULT_BIT_BUDGET:
            raise CapacityError(f"decimal literal {over}")
        return value
    if single is not None:
        e = int(single)
        if e >= DEFAULT_BIT_BUDGET:
            raise CapacityError(f"2^{e} {over}")
        return 1 << e
    e = int(tower)
    if e > 60 or (1 << e) >= DEFAULT_BIT_BUDGET:
        raise CapacityError(f"2^(2^{e}) {over}")
    return 1 << (1 << e)


def result_record(name: str, config: dict, payload, timing: dict | None = None) -> dict:
    """The record every run emits; only ``payload`` must be byte-identical across runs."""
    return {
        "name": name,
        "config": config,
        "payload": payload,
        "timing": {} if timing is None else timing,
        "versions": {"sumsetlab": __version__},
    }


def fraction_payload(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def fraction_from_payload(obj: dict) -> Fraction:
    try:
        return Fraction(int(obj["num"]), int(obj["den"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"not a rational payload: {obj!r}") from exc


def decimal15(value: Fraction | int | float) -> str:
    """Decimal rendering at 15 significant digits (CSV only; lossy)."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.15g}"
    with localcontext() as ctx:
        ctx.prec = 15
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def payload_json(payload: Any) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_payload(obj: Any) -> Any:
    """Encode a report for JSON, recursing into its fields.

    Dataclass and named-tuple fields keep their declaration order, which
    sets the CSV column order; a Fraction becomes ``fraction_payload`` and
    a tuple or list becomes a list. Other values pass through unchanged.
    """
    if isinstance(obj, Fraction):
        return fraction_payload(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: report_payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: report_payload(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, (tuple, list)):
        return [report_payload(value) for value in obj]
    return obj


def covering_payload(system: CoveringSystem, check: CoverCheck) -> dict:
    return {"system": system.to_json(), "lcm": system.lcm, **report_payload(check)}


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render rows to CSV, appending a per-row `lossy` marker column.

    A row is marked lossy when it contains a Fraction or float that had to
    be rendered as a decimal; exact integers and strings keep `no`.
    """
    buf = io.StringIO()
    buf.write(",".join([*header, "lossy"]) + "\n")
    for row in rows:
        lossy = any(isinstance(v, (Fraction, float)) for v in row)
        cells = []
        for v in row:
            if isinstance(v, (Fraction, float, int)) and not isinstance(v, bool):
                cells.append(decimal15(v))
            elif v is None:
                cells.append("")
            else:
                cells.append(str(v))
        cells.append("yes" if lossy else "no")
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def payload_csv(payload: Any) -> str:
    """Flatten a payload produced by this module into CSV rows.

    Lists of per-x dicts become one row per x; a single dict becomes one
    row. Rational sub-objects render as 15-digit decimals.
    """
    records = payload if isinstance(payload, list) else [payload]
    if not records:
        return "\n"
    header = list(records[0].keys())
    rows = []
    for rec in records:
        row = []
        for key in header:
            value = rec.get(key)
            if isinstance(value, dict) and set(value) == {"num", "den"}:
                row.append(fraction_from_payload(value))
            elif isinstance(value, (dict, list)):
                row.append(json.dumps(value, sort_keys=True).replace(",", ";"))
            else:
                row.append(value)
        rows.append(row)
    return rows_to_csv(header, rows)
