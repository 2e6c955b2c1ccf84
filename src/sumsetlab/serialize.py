"""Report serialization: deterministic JSON payloads and lossy-marked CSV.

This module only writes; ``errors`` reads every integer text from outside.
Pipelines return library objects (reports, Fractions, covering systems,
certificates) in plain dicts, and ``result_record`` keeps them as they
are until the record is written, in one pass: ``payload_json`` walks the
record once and appends each value's text as it goes, and ``payload_csv``
reads the objects directly and writes a nested report or list in its
cell the same way, compact. The writer accepts exactly the types records
hold: dicts with text keys, lists, tuples, Fractions, ints, strs, None,
bools and floats, and dataclass and named tuple instances. Anything else,
a subclass of one of these or a key that is not text included, raises a
TypeError. The bytes are those of ``json.dumps(reference(record),
sort_keys=True, indent=2)`` plus a newline, where the reference turns
each Fraction into its {"num", "den"} pair, each dataclass or named tuple
into an object of its fields and each tuple into a list; a CSV cell holds
``json.dumps(reference(value), sort_keys=True)`` with each "," turned
into ";".

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
    "decimal15",
    "payload_json",
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
    """The compact JSON a CSV cell holds: ``json.dumps(reference(obj), sort_keys=True)``."""
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


# each dataclass or named tuple type written so far: its field names, sorted
_SORTED_FIELDS: dict[type, tuple[str, ...]] = {}
# the floats json writes by name
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _int(n: int) -> str:
    """``int_text(n)``, with no call for an int of up to _SPLIT_BITS bits."""
    return int.__repr__(n) if n.bit_length() <= _SPLIT_BITS else int_text(n)


def _encode(obj: Any, out: list[str], pad: str | None) -> None:
    """Append the JSON text of ``obj`` to ``out``, keys sorted.

    ``pad`` is the line break and indent of obj's own line, as
    ``json.dumps(indent=2)`` writes them, or None for the compact form.
    """
    kind = type(obj)
    if kind is dict:
        _container(sorted(obj.items()), True, out, pad)
    elif kind is list or kind is tuple:
        _container(obj, False, out, pad)
    elif kind in _SORTED_FIELDS:
        _container([(name, getattr(obj, name)) for name in _SORTED_FIELDS[kind]], True, out, pad)
    elif kind is Fraction:
        pair = (("den", _int(obj.denominator)), ("num", _int(obj.numerator)))
        _container(pair, True, out, pad)
    elif kind is int:
        out.append(_int(obj))
    elif kind is str:
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is float:
        text = float.__repr__(obj)
        out.append(_FLOAT_NAMES.get(text, text))
    else:
        fields = None if isinstance(obj, (dict, type)) else _fields(obj)
        if fields is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        _SORTED_FIELDS[kind] = tuple(sorted(fields))  # a dataclass or named tuple instance
        _encode(obj, out, pad)


def _container(members: Any, keyed: bool, out: list[str], pad: str | None) -> None:
    """A JSON object of the (key, value) pairs if ``keyed``, else an array of the values; in order.

    Its int and str values, the commonest, are written without a call.
    """
    opener, closer = ("{", "}") if keyed else ("[", "]")
    if not members:
        out.append(opener + closer)
        return
    if pad is None:
        inner, lead, sep = None, opener, ", "
    else:
        inner = pad + "  "
        lead, sep = opener + inner, "," + inner
    for value in members:
        if keyed:
            key, value = value
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(lead + _string(key) + ": ")
        else:
            out.append(lead)
        lead = sep
        kind = type(value)
        if kind is int and value.bit_length() <= _SPLIT_BITS:
            out.append(int.__repr__(value))
        elif kind is str:
            out.append(_string(value))
        else:
            _encode(value, out, inner)
    out.append(closer if pad is None else pad + closer)


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
