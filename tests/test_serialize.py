"""The record writer against the standard library's: the same bytes for every tree it accepts.

``payload_json`` and the nested CSV cells encode a record in one pass. Each
test here encodes a tree with ``report_payload`` and ``json.dumps`` too, the
two-pass route the writer replaced, and requires the same text, or the same
refusal.
"""

import collections
import dataclasses
import enum
import functools
import json
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab.errors import json_int
from sumsetlab.serialize import _compact, payload_csv, payload_json, report_payload, result_record


@dataclasses.dataclass(frozen=True)
class _Report:
    x: object
    ratio: object
    bound: object


class _Check(NamedTuple):
    holds: object
    witnesses: object


def stdlib_json(tree) -> str:
    return json.dumps(report_payload(tree), sort_keys=True, indent=2) + "\n"


def stdlib_compact(tree) -> str:
    return json.dumps(report_payload(tree), sort_keys=True)


def loads(text: str):
    """JSON text read back through ``text_int``, which reads integers past the digit limit."""
    return json.loads(text, parse_int=functools.partial(json_int, what="integer literal"))


# quotes, backslashes, control characters, DEL, non-ASCII, an astral character and a lone surrogate
_AWKWARD = '"\\/\x00\x01\x08\t\n\x1f\x7f é €\U0001f600\ud800'
TEXT = st.text(max_size=6) | st.text(st.sampled_from(_AWKWARD + "ab,;"), max_size=6)
INTS = st.integers(-(2**4096), 2**4096)
FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0])
FRACTIONS = st.builds(Fraction, INTS, INTS.filter(bool))
LEAVES = st.none() | st.booleans() | INTS | FLOATS | TEXT | FRACTIONS


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.builds(_Report, children, children, children)
            | st.builds(_Check, children, children))


TREES = st.recursive(LEAVES, _containers, max_leaves=24)


class TestAgainstTheStdlib:
    @given(TREES)
    @settings(max_examples=400, deadline=None)
    def test_random_trees(self, tree):
        assert payload_json(tree) == stdlib_json(tree)
        assert _compact(tree) == stdlib_compact(tree)

    @given(TREES)
    @settings(max_examples=100, deadline=None)
    def test_csv_cells_hold_the_compact_form(self, tree):
        cell = stdlib_compact([tree]).replace(",", ";")
        assert payload_csv({"cell": [tree]}) == f"cell,lossy\n{cell},no\n"

    @pytest.mark.parametrize(
        "tree",
        [
            {1: "one", 2.5: [], -(2**70): None},  # keys json writes as text
            {True: 1},
            {None: 0},
            {float("nan"): 1, float("-inf"): 2},
            collections.OrderedDict([("b", 1), ("a", 2)]),
            collections.defaultdict(list, {"k": [1]}),
            enum.IntEnum("Small", "A B")(2),
            type("Text", (str,), {})("sub\n"),
            type("Big", (int,), {})(-(2**5000) - 7),
            # json writes float.__repr__, whatever repr a subclass defines
            type("Real", (float,), {"__repr__": lambda self: "real"})(-0.5),
            type("Real", (float,), {})(float("-inf")),
            type("Items", (list,), {})([1, (2, 3)]),
            Fraction(-(3**9000), 2**5000),
            _Report(_Check(True, ()), {}, []),
            (),
            "",
        ],
    )
    def test_subclasses_and_keys(self, tree):
        assert payload_json(tree) == stdlib_json(tree)
        assert _compact(tree) == stdlib_compact(tree)

    def test_a_record_is_written_as_the_stdlib_writes_it(self):
        record = result_record("unit", {"x": 2**5000}, {"report": _Report(1, Fraction(2, 3), None)})
        assert payload_json(record) == stdlib_json(record)


class TestRefusals:
    """What json refuses after report_payload, the writer refuses with the same TypeError."""

    @pytest.mark.parametrize("leaf", [{1, 2}, object()], ids=["set", "object"])
    @pytest.mark.parametrize(
        "place",
        [lambda leaf: [leaf], lambda leaf: {"k": leaf}, lambda leaf: _Report(1, leaf, None),
         lambda leaf: _Check(True, (leaf,))],
        ids=["list", "dict", "dataclass", "named-tuple"],
    )
    def test_an_unencodable_leaf(self, leaf, place):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            payload_json(result_record("unit", {}, {"report": place(leaf)}))
        # CSV writes a top-level cell with str(); a nested one is encoded
        with pytest.raises(TypeError, match="is not JSON serializable"):
            payload_csv({"x": 1, "report": place(leaf)})

    @pytest.mark.parametrize(
        "tree",
        [{Fraction(1, 2): 1}, {(1, 2): 1}, {False: None, None: 0}, {"a": 1, 2: 3},
         enum.Enum("Label", {"A": "x"}).A],
        ids=["fraction-key", "tuple-key", "unordered-keys", "mixed-keys", "enum"],
    )
    def test_what_json_refuses(self, tree):
        with pytest.raises(TypeError) as stdlib:
            stdlib_json(tree)
        with pytest.raises(TypeError) as writer:
            payload_json(tree)
        assert str(writer.value) == str(stdlib.value)
        with pytest.raises(TypeError):
            _compact(tree)


BIG_INTS = st.integers(4097, 20_000).flatmap(
    lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)
).flatmap(lambda n: st.sampled_from([n, -n]))
BIG_TREES = st.recursive(
    BIG_INTS | st.builds(Fraction, BIG_INTS, BIG_INTS) | TEXT,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(TEXT, children, max_size=3)
                      | st.builds(_Report, children, children, children)),
    max_leaves=6,
)


class TestBigIntegers:
    """Integers of 4097 to 20,000 bits: up to 6021 digits, past the interpreter's 4300."""

    @given(BIG_TREES)
    @settings(max_examples=40, deadline=None)
    def test_read_back_equal(self, tree):
        assert loads(payload_json(tree)) == report_payload(tree)
        assert loads(_compact(tree)) == report_payload(tree)

    def test_a_big_integer_is_written_as_its_digits(self):
        n = -(7**9000)  # 25,266 bits
        assert payload_json([n]) == f"[\n  {Decimal(n)}\n]\n"
