"""Report serialization: deterministic JSON payloads and lossy-marked CSV.

This module only writes; ``errors`` reads every integer text from outside.
Pipelines return library objects (reports, Fractions, covering systems,
certificates) in plain dicts, and ``result_record`` keeps them as they
are until the record is written, in one pass: ``payload_json`` walks the
record once and appends each value's text as it goes, and ``payload_csv``
reads the objects directly and writes a nested report or list in its
cell the same way, compact. The bytes are those of
``json.dumps(report_payload(record), sort_keys=True, indent=2)`` plus a
newline, and for a CSV cell of ``json.dumps(report_payload(value),
sort_keys=True)`` with each "," turned into ";". What json refuses, such
as a set or an object, the writer refuses with the same TypeError.
``report_payload`` builds that encoded tree as plain dicts and lists; an
experiment's config file (``ExperimentConfig.to_json``) is written from it.

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
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import TYPE_CHECKING, Any

from ._version import __version__
from .errors import _join

if TYPE_CHECKING:
    from .depolignac import CoverCheck, CoveringSystem

__all__ = [
    "result_record",
    "fraction_payload",
    "decimal15",
    "payload_json",
    "report_payload",
    "covering_payload",
    "payload_csv",
]

_SPLIT_BITS = 4096  # an integer past this size is written in pieces


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


def payload_json(record: Any) -> str:
    """Canonical JSON of the encoded record: sorted keys, fixed separators, trailing newline."""
    out: list[str] = []
    _encode(record, out, "\n")
    out.append("\n")
    return "".join(out)


def _compact(obj: Any) -> str:
    """The encoded value as ``json.dumps(report_payload(obj), sort_keys=True)`` writes it."""
    out: list[str] = []
    _encode(obj, out, None)
    return "".join(out)


def _fields(obj: Any) -> dict | None:
    """A dict, or a dataclass's or named tuple's fields in declaration order; else None."""
    if isinstance(obj, dict):
        return obj
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return obj._asdict()
    return None


def report_payload(obj: Any) -> Any:
    """Encode a report for JSON, recursing into its fields.

    A Fraction becomes ``fraction_payload``, ``_fields`` keep their order and
    a tuple or list becomes a list. Other values come back unchanged, so an
    already encoded payload comes back equal.
    """
    if isinstance(obj, Fraction):
        return fraction_payload(obj)
    fields = _fields(obj)
    if fields is not None:
        return {key: report_payload(value) for key, value in fields.items()}
    if isinstance(obj, (tuple, list)):
        return [report_payload(value) for value in obj]
    return obj


_INFINITY = float("inf")
# each dataclass or named tuple type written so far: its field names, sorted
_SORTED_FIELDS: dict[type, tuple[str, ...]] = {}


def _int(n: int) -> str:
    """``int_text(n)``, with no call for an int of up to _SPLIT_BITS bits."""
    return int.__repr__(n) if n.bit_length() <= _SPLIT_BITS else int_text(n)


def _float(value: float) -> str:
    """A float as json writes it: NaN and the infinities by name, any other by its repr."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key(key: Any) -> str:
    """A dict key's JSON text, converted as json converts a key that is not a str."""
    if isinstance(key, str):
        return _string(key)
    if isinstance(key, float):
        return _string(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _string(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(obj: Any, out: list[str], pad: str | None) -> None:
    """Append the JSON text of ``report_payload(obj)`` to ``out``, keys sorted.

    ``pad`` is the line break and indent of obj's own line, as
    ``json.dumps(indent=2)`` writes them, or None for the compact form.
    """
    kind = type(obj)
    if kind is dict:
        _object(sorted(obj.items()), out, pad)
    elif kind is list or kind is tuple:
        _array(obj, out, pad)
    elif kind in _SORTED_FIELDS:
        _object([(name, getattr(obj, name)) for name in _SORTED_FIELDS[kind]], out, pad)
    elif kind is Fraction:
        _object([("den", _int(obj.denominator)), ("num", _int(obj.numerator))], out, pad)
    elif kind is int:
        out.append(_int(obj))
    elif kind is str:
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is float:
        out.append(_float(obj))
    else:
        _encode_other(obj, out, pad)


def _encode_other(obj: Any, out: list[str], pad: str | None) -> None:
    """The types ``_encode`` does not name, tested as report_payload and json test them."""
    if isinstance(obj, Fraction):
        _encode(Fraction(obj), out, pad)
        return
    fields = _fields(obj)
    if fields is not None:
        if not isinstance(obj, (dict, type)):  # a dataclass or named tuple instance
            _SORTED_FIELDS[type(obj)] = tuple(sorted(fields))
        _object(sorted(fields.items()), out, pad)
    elif isinstance(obj, (tuple, list)):
        _array(obj, out, pad)
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, int):
        out.append(_int(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# Each container writes its int and str members itself, the commonest values, without a call.

def _object(members: list[tuple[Any, Any]], out: list[str], pad: str | None) -> None:
    """A JSON object of the (key, value) pairs, in the order given."""
    if not members:
        out.append("{}")
        return
    if pad is None:
        inner, lead, sep = None, "{", ", "
    else:
        inner = pad + "  "
        lead, sep = "{" + inner, "," + inner
    for key, value in members:
        out.append(lead + (_string(key) if type(key) is str else _key(key)) + ": ")
        lead = sep
        kind = type(value)
        if kind is int and value.bit_length() <= _SPLIT_BITS:
            out.append(int.__repr__(value))
        elif kind is str:
            out.append(_string(value))
        else:
            _encode(value, out, inner)
    out.append("}" if pad is None else pad + "}")


def _array(values: list | tuple, out: list[str], pad: str | None) -> None:
    """A JSON array of the values, in order."""
    if not values:
        out.append("[]")
        return
    if pad is None:
        inner, lead, sep = None, "[", ", "
    else:
        inner = pad + "  "
        lead, sep = "[" + inner, "," + inner
    for value in values:
        out.append(lead)
        lead = sep
        kind = type(value)
        if kind is int and value.bit_length() <= _SPLIT_BITS:
            out.append(int.__repr__(value))
        elif kind is str:
            out.append(_string(value))
        else:
            _encode(value, out, inner)
    out.append("]" if pad is None else pad + "]")


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
                cells.append(_compact(value).replace(",", ";"))
            else:
                cells.append(str(value))
        cells.append("yes" if lossy else "no")
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()
