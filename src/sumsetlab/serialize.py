"""Report serialization: deterministic JSON payloads and lossy-marked CSV.

Pipelines return library objects (reports, Fractions, covering systems,
certificates) in plain dicts; ``result_record`` is the one place they
are encoded, through ``report_payload``, into the record the CLI and
the experiments emit. ``parse_power_expr`` reads integer arguments under
the library's bit budget.

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
from typing import TYPE_CHECKING, Any

from ._version import __version__
from .errors import DEFAULT_BIT_BUDGET, MAX_DECIMAL_DIGITS, CapacityError, ConfigError, text_name

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
        raise ConfigError(f"cannot parse integer expression {text_name(text)}")
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
    """The record every run emits, with ``config`` and ``payload`` encoded by ``report_payload``.

    Only ``payload`` must be byte-identical across runs.
    """
    return {
        "name": name,
        "config": report_payload(config),
        "payload": report_payload(payload),
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
    sets the CSV column order; a Fraction becomes ``fraction_payload``, a
    dict keeps its keys and a tuple or list becomes a list. Other values
    pass through unchanged, so an already encoded payload comes back equal.
    """
    if isinstance(obj, Fraction):
        return fraction_payload(obj)
    if isinstance(obj, dict):
        return {key: report_payload(value) for key, value in obj.items()}
    if dataclasses.is_dataclass(obj):
        return {f.name: report_payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: report_payload(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, (tuple, list)):
        return [report_payload(value) for value in obj]
    return obj


def covering_payload(system: CoveringSystem, check: CoverCheck) -> dict:
    return {"system": system, "lcm": system.lcm, **check._asdict()}


def payload_csv(payload: Any) -> str:
    """Flatten an encoded payload into CSV rows, appending a per-row `lossy` column.

    A payload's ``points`` list, or any list of per-x dicts, becomes one
    row per x; a single dict becomes one row. Rational sub-objects render
    as 15-digit decimals, and a row is marked lossy when it holds one or a
    float; exact integers and strings keep `no`.
    """
    if isinstance(payload, dict) and "points" in payload:
        payload = payload["points"]
    records = payload if isinstance(payload, list) else [payload]
    if not records:
        return "\n"
    header = list(records[0].keys())
    buf = io.StringIO()
    buf.write(",".join([*header, "lossy"]) + "\n")
    for rec in records:
        cells, lossy = [], False
        for key in header:
            value = rec.get(key)
            if isinstance(value, dict) and set(value) == {"num", "den"}:
                value = fraction_from_payload(value)
            elif isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True).replace(",", ";")
            lossy = lossy or isinstance(value, (Fraction, float))
            if isinstance(value, (Fraction, float, int)) and not isinstance(value, bool):
                cells.append(decimal15(value))
            elif value is None:
                cells.append("")
            else:
                cells.append(str(value))
        cells.append("yes" if lossy else "no")
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()
