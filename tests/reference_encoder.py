"""The reference the record writer is tested against: a record as a plain tree.

``report_payload`` builds the tree ``serialize.payload_json`` encodes in one
pass; ``json.dumps`` of it, with sorted keys and an indent of 2, plus a
newline, is the record's byte contract. It is written for clarity, not
speed, and it accepts more than the writer does: whatever it leaves
unchanged, json judges.
"""

import dataclasses
from fractions import Fraction
from typing import Any

from sumsetlab.serialize import int_text


def fraction_payload(value: Fraction) -> dict:
    """An exact rational as a pair of decimal strings."""
    return {"num": int_text(value.numerator), "den": int_text(value.denominator)}


def report_payload(obj: Any) -> Any:
    """Encode a report for JSON, recursing into its fields.

    A Fraction becomes ``fraction_payload``, a dict's, dataclass's or named
    tuple's fields keep their order and a tuple or list becomes a list.
    Other values come back unchanged, so an already encoded payload comes
    back equal.
    """
    if isinstance(obj, Fraction):
        return fraction_payload(obj)
    if isinstance(obj, dict):
        return {key: report_payload(value) for key, value in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: report_payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {key: report_payload(value) for key, value in obj._asdict().items()}
    if isinstance(obj, (tuple, list)):
        return [report_payload(value) for value in obj]
    return obj
