"""Report serialization: deterministic JSON payloads and lossy-marked CSV.

Pipelines return library objects (reports, Fractions, covering systems,
certificates) in plain dicts, and ``result_record`` keeps them as they
are until the record is written: ``payload_json`` encodes the record
through ``report_payload``, and ``payload_csv`` reads the objects
directly. ``parse_power_expr`` reads integer arguments under the
library's bit budget.

Exact rationals always serialize as {"num": ..., "den": ...} decimal
strings, so no precision is laundered through floats; integers stay
JSON integers (arbitrary precision survives a round trip), whose text
``errors.text_int`` reads and ``int_text`` writes. CSV rows
render rationals as 15-significant-digit decimals and carry an explicit
marker column saying whether anything in the row was rounded.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable

from ._version import __version__
from .errors import (DEFAULT_BIT_BUDGET, MAX_DECIMAL_DIGITS, CapacityError, ConfigError, _join,
                     int_name, json_int, text_int, text_name)

if TYPE_CHECKING:
    from .depolignac import CoverCheck, CoveringSystem

__all__ = [
    "DEFAULT_BIT_BUDGET",
    "parse_power_expr",
    "result_record",
    "fraction_payload",
    "decimal15",
    "payload_json",
    "report_payload",
    "covering_payload",
    "payload_csv",
]

_EXPR_RE = re.compile(r"^\s*(?:(\d+)|2\^(\d+)|2\^\(2\^(\d+)\))\s*$")
_SPLIT_BITS = 4096  # an integer past this size is written in pieces


def parse_power_expr(text: str | int) -> int:
    """Parse "12345", "2^k", or "2^(2^k)" into an exact integer; other values go to ``json_int``.

    Raises:
        ConfigError: the text matches none of the three forms, or the value is no integer.
        CapacityError: the value would exceed DEFAULT_BIT_BUDGET bits.
    """
    over = f"exceeds the {DEFAULT_BIT_BUDGET}-bit budget"
    if not isinstance(text, str):
        value = json_int(text, "integer expression", ConfigError)
        if value.bit_length() > DEFAULT_BIT_BUDGET:
            raise CapacityError(f"integer {over}")
        return value
    match = _EXPR_RE.match(text)
    if not match:
        raise ConfigError(f"cannot parse integer expression {text_name(text)}")
    decimal, single, tower = match.groups()
    digits = decimal or single or tower
    if len(digits) > MAX_DECIMAL_DIGITS:
        raise CapacityError(f"decimal literal {over}")
    value = text_int(digits)
    if decimal is not None:
        if value.bit_length() > DEFAULT_BIT_BUDGET:
            raise CapacityError(f"decimal literal {over}")
        return value
    if single is not None:
        if value >= DEFAULT_BIT_BUDGET:
            raise CapacityError(f"2^e with {int_name('e', value)} {over}")
        return 1 << value
    if value > 60 or (1 << value) >= DEFAULT_BIT_BUDGET:
        raise CapacityError(f"2^(2^e) with {int_name('e', value)} {over}")
    return 1 << (1 << value)


def int_decimal(n: int) -> Decimal:
    """n as an exact Decimal, in quasi-linear time past _SPLIT_BITS bits; str() of it is str(n)."""
    if n.bit_length() <= _SPLIT_BITS:
        return Decimal(n)
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX  # exact: no value in memory has MAX_PREC digits
        m, size = abs(n), _SPLIT_BITS
        parts = [Decimal(m >> at & (1 << size) - 1) for at in range(0, m.bit_length(), size)]
        return (-1 if n < 0 else 1) * _join(parts, Decimal(2) ** size)


def int_text(n: int) -> str:
    """str(n) at any length: plain str() up to _SPLIT_BITS bits, then str(int_decimal(n))."""
    return str(n) if n.bit_length() <= _SPLIT_BITS else str(int_decimal(n))


def result_record(name: str, config: dict, payload, timing: dict | None = None) -> dict:
    """The record every run emits; ``config`` and ``payload`` hold library objects until written.

    Only ``payload`` must be byte-identical across runs.
    """
    return {
        "name": name,
        "config": config,
        "payload": payload,
        "timing": {} if timing is None else timing,
        "versions": {"sumsetlab": __version__},
    }


def fraction_payload(value: Fraction) -> dict:
    return {"num": int_text(value.numerator), "den": int_text(value.denominator)}


def decimal15(value: Fraction | int | float) -> str:
    """Decimal rendering at 15 significant digits (CSV only; lossy)."""
    if isinstance(value, int):
        return int_text(value)
    if isinstance(value, float):
        return f"{value:.15g}"
    with localcontext() as ctx:
        ctx.prec = 15
        return str(int_decimal(value.numerator) / int_decimal(value.denominator))


def _dumps(obj: Any, **options) -> str:
    """json.dumps of report_payload(obj), with each int past _SPLIT_BITS written by int_text:
    it goes in as a string of a token fresh to this call, which no outside string matches."""
    token, texts = os.urandom(16).hex(), []

    def big(value: Any) -> Any:
        if isinstance(value, int) and value.bit_length() > _SPLIT_BITS:
            texts.append(int_text(value))
            return f"{token}{len(texts) - 1}"
        return value

    text = json.dumps(report_payload(obj, big), **options)
    for i, digits in enumerate(texts):
        text = text.replace(f'"{token}{i}"', digits, 1)
    return text


def payload_json(record: Any) -> str:
    """Canonical JSON of the encoded record: sorted keys, fixed separators, trailing newline."""
    return _dumps(record, sort_keys=True, indent=2) + "\n"


def _fields(obj: Any) -> dict | None:
    """A dict, or a dataclass's or named tuple's fields in declaration order; else None."""
    if isinstance(obj, dict):
        return obj
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return obj._asdict()
    return None


def report_payload(obj: Any, leaf: Callable[[Any], Any] = lambda value: value) -> Any:
    """Encode a report for JSON, recursing into its fields.

    A Fraction becomes ``fraction_payload``, ``_fields`` keep their order and
    a tuple or list becomes a list. Other values go through ``leaf``, by default
    unchanged, so an already encoded payload comes back equal.
    """
    if isinstance(obj, Fraction):
        return fraction_payload(obj)
    fields = _fields(obj)
    if fields is not None:
        return {key: report_payload(value, leaf) for key, value in fields.items()}
    if isinstance(obj, (tuple, list)):
        return [report_payload(value, leaf) for value in obj]
    return leaf(obj)


def covering_payload(system: CoveringSystem, check: CoverCheck) -> dict:
    return {"system": system, "lcm": system.lcm, **check._asdict()}


def payload_csv(payload: Any) -> str:
    """Flatten a record's payload into CSV rows, appending a per-row `lossy` column.

    A payload's ``points`` list, or any list of per-x reports, becomes one
    row per x, and a single report one row, columns in field order. Fractions
    render as 15-digit decimals and a nested report or list as its JSON; a row
    holding a Fraction or a float is marked lossy.
    """
    if isinstance(payload, dict) and "points" in payload:
        payload = payload["points"]
    records = [_fields(rec) for rec in (payload if isinstance(payload, list) else [payload])]
    if not records:
        return "\n"
    header = list(records[0])
    buf = io.StringIO()
    buf.write(",".join([*header, "lossy"]) + "\n")
    for rec in records:
        cells, lossy = [], False
        for key in header:
            value = rec.get(key)
            lossy = lossy or isinstance(value, (Fraction, float))
            if isinstance(value, (Fraction, float, int)) and not isinstance(value, bool):
                cells.append(decimal15(value))
            elif value is None:
                cells.append("")
            elif isinstance(value, (tuple, list)) or _fields(value) is not None:
                cells.append(_dumps(value, sort_keys=True).replace(",", ";"))
            else:
                cells.append(str(value))
        cells.append("yes" if lossy else "no")
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()
