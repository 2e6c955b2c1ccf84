"""The error classes, the range-check helper, and what the integer entry points may raise."""

import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsetlab
from sumsetlab import (
    APCertificate,
    BlockCountReport,
    BlockSet,
    CapacityError,
    ClaimError,
    ConfigError,
    GrowthSchedule,
    SumsetLabError,
    SumsetReport,
    ap_scan,
    b_member,
    big_log2,
    block_index,
    bound_chain_point,
    c_upper_report,
    conjecture_ratio,
    count_b,
    count_b_lower_bound,
    default_covering_system,
    enumerate_c,
    first_odd_primes,
    grow,
    is_prime,
    j_window_check,
    legendre_count,
    ratio_point,
    romanov_density_scan,
    s1_bound,
    s2_bound,
    sieve_primes,
    split_s1_s2,
)
from sumsetlab.errors import MAX_DECIMAL_DIGITS, at_least, text_int
from sumsetlab.serialize import decimal15, int_decimal


class TestHierarchy:
    def test_each_kind_carries_its_exit_code(self):
        assert (ConfigError.exit_code, CapacityError.exit_code, ClaimError.exit_code) == (2, 3, 4)

    def test_a_config_error_is_still_a_value_error(self):
        assert issubclass(ConfigError, ValueError) and issubclass(ConfigError, SumsetLabError)

    def test_a_failed_claim_is_no_input_error(self):
        assert not issubclass(ClaimError, (ValueError, ConfigError, CapacityError))

    def test_public_names(self):
        assert "ClaimError" in sumsetlab.__all__ and "CRTError" not in sumsetlab.__all__


class TestAtLeast:
    def test_returns_the_value(self):
        assert at_least("x", 5, 5) == 5

    def test_message(self):
        with pytest.raises(ConfigError, match=r"^k_min must be >= 0, got -1$"):
            at_least("k_min", -1, 0)

    def test_message_names_the_minimum_as_shown_and_a_big_value_by_size(self):
        with pytest.raises(ConfigError, match=r"^x must be >= G\(1\) = 4, got -1$"):
            at_least("x", -1, 4, "G(1) = 4")
        with pytest.raises(ConfigError, match=r"^x must be >= 0, got a negative int of 201 bits$"):
            at_least("x", -(2**200), 0)


class TestReportInvariants:
    def test_count_below_its_certified_bound_is_a_claim_error(self):
        with pytest.raises(ClaimError, match=r"^b_count fell below its certified lower bound: "
                                             r"b_count=3 < ceil\(bound\)=4 at x=100$"):
            BlockCountReport(x=100, j=2, b_count=3, a_count=6, b_lower_bound=Fraction(7, 2),
                             ratio_exact=Fraction(18, 100), conjecture_ratio=0.18)

    def test_negative_count_is_a_claim_error(self):
        with pytest.raises(ClaimError, match=r"^b_count must be >= 0: b_count=-1 at x of 101 bits$"):
            BlockCountReport(x=2**100, j=2, b_count=-1, a_count=100, b_lower_bound=None,
                             ratio_exact=Fraction(0), conjecture_ratio=0.0)

    def test_split_that_is_no_partition_is_a_claim_error(self):
        with pytest.raises(ClaimError, match=r"^s1_count \+ s2_count must equal c_count: "
                                             r"s1_count \+ s2_count=9 != c_count=10 at x=100$"):
            SumsetReport(x=100, j=3, c_count=10, s1_count=4, s2_count=5, s1_overlap=0,
                         density=0.1, sqrt_check=True)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"s1_overlap": -1}, "s1_overlap must be >= 0: s1_overlap=-1"),
            ({"s1_overlap": 5}, "s1_overlap must be <= s1_count: s1_overlap=5 > s1_count=4"),
            ({"s1_count": 11, "s2_count": -1},
             "s1_count must be <= c_count: s1_count=11 > c_count=10"),
            ({"s1_legendre": 3}, "s1_count must be <= s1_legendre: s1_count=4 > s1_legendre=3"),
            ({"s1_bound": Fraction(99, 2)},
             "s1_legendre must be <= s1_bound: s1_legendre=50 > floor(s1_bound)=49"),
            ({"s2_bound": Fraction(11, 2)},
             "s2_count must be <= s2_bound: s2_count=6 > floor(s2_bound)=5"),
            ({"c_bound": Fraction(19, 2)},
             "c_count must be <= c_bound: c_count=10 > floor(c_bound)=9"),
        ],
        ids=["overlap-negative", "overlap", "s1-above-c", "legendre", "s1-bound", "s2-bound",
             "c-bound"],
    )
    def test_a_report_out_of_order_is_a_claim_error(self, fields, message):
        # 0 <= s1_overlap <= s1_count <= c_count, and each count under the bounds filled in
        sound = {"x": 100, "j": 3, "c_count": 10, "s1_count": 4, "s2_count": 6, "s1_overlap": 1,
                 "density": 0.1, "sqrt_check": True, "s1_bound": Fraction(50),
                 "s2_bound": Fraction(6), "c_bound": Fraction(10), "s1_legendre": 50}
        SumsetReport(**sound)
        SumsetReport(**{**sound, "s1_bound": None, "s2_bound": None, "c_bound": None,
                        "s1_legendre": None, "s1_overlap": 4})
        with pytest.raises(ClaimError, match=f"^{re.escape(message)} at x=100$"):
            SumsetReport(**{**sound, **fields})


# Draws stay small enough that no call allocates more than a few MB: sieve and scan
# limits below 10^6 or from 2^34 (refused at the cap), prime counts up to 10^4 or from
# 2^34, enumerated x below 10^6 or from 2^63 (refused before any bitmap), and block set
# depths up to 200, whose window boundaries 2^(t*t) take 0.3 MB together. Paper depths
# run to 2^34: past 4 they are refused from t, before e(t) = 2^(t*t) is built.
ANY = st.integers(-(2**100), 2**100)
BEYOND = st.integers(2**34, 2**100)
LIMIT = st.integers(-(2**100), 10**6) | BEYOND
COUNT = st.integers(-(2**100), 10**4) | BEYOND
ENUM_X = st.integers(-(2**100), 10**6) | st.integers(2**63 - 1, 2**100)
BLOCKS = st.sampled_from([BlockSet.materialize(GrowthSchedule.paper(), 3),
                          BlockSet.materialize(GrowthSchedule.polynomial(), 30)])
SCHEDULES = st.sampled_from([GrowthSchedule.paper(), GrowthSchedule.polynomial(),
                             GrowthSchedule.custom([1, 3, 6, 10])])
PAPER_DEPTH = st.integers(-(2**100), 2**34)
CERT = APCertificate(residue=3, modulus=10)


def call(func, *args):
    return st.tuples(st.just(func), *args)


CALLS = st.one_of(
    call(count_b, ANY, BLOCKS),
    call(count_b_lower_bound, ANY, BLOCKS),
    call(conjecture_ratio, ANY, BLOCKS),
    call(b_member, ANY, BLOCKS),
    call(block_index, ANY, SCHEDULES),
    call(j_window_check, ANY, st.just(GrowthSchedule.paper())),
    call(grow, SCHEDULES, st.integers(-(2**100), 40)),
    call(grow, st.just(GrowthSchedule.polynomial()), ANY),
    call(grow, st.just(GrowthSchedule.paper()), PAPER_DEPTH),
    call(BlockSet.materialize, SCHEDULES, st.integers(-(2**100), 200)),
    call(BlockSet.materialize, st.just(GrowthSchedule.polynomial()), BEYOND),
    call(BlockSet.materialize, st.just(GrowthSchedule.paper()), PAPER_DEPTH),
    call(BlockSet.level, BLOCKS, ANY | st.just(10**5000)),  # a depth past 4300 digits
    call(sieve_primes, LIMIT),
    call(first_odd_primes, COUNT),
    call(is_prime, ANY),
    call(big_log2, ANY),
    call(legendre_count, ANY, st.sampled_from([(3, 5, 7), (3, 3)])),
    call(ap_scan, st.just(CERT), LIMIT, ANY),
    call(romanov_density_scan, LIMIT, ANY),
    call(APCertificate, ANY, ANY),
    call(APCertificate, ANY, ANY, st.just(default_covering_system())),
    call(enumerate_c, ENUM_X, BLOCKS, ANY),
    call(split_s1_s2, ENUM_X, BLOCKS, ANY),
    call(c_upper_report, ENUM_X, BLOCKS, ANY),
    call(ratio_point, ENUM_X, BLOCKS, ANY),
    call(s1_bound, ANY, BLOCKS),
    call(s2_bound, ANY, BLOCKS),
    call(bound_chain_point, ANY, BLOCKS),
)


@settings(max_examples=400, deadline=None)
@given(CALLS)
def test_integer_entry_points_raise_only_package_errors(drawn):
    # a result, or a SumsetLabError; any other exception fails the test with its traceback
    func, *args = drawn
    try:
        func(*args)
    except SumsetLabError:
        pass


# Integers on both sides of the split at a few thousand bits: random ones up to 40,000 bits,
# and 10^k and 10^k - 1 up to 12,000 digits, of either sign.
MAGNITUDES = st.one_of(
    st.builds(lambda bits, seed: random.Random(seed).getrandbits(bits),
              st.integers(0, 40_000), st.integers(0, 2**32)),
    st.integers(0, 12_000).map(lambda k: 10**k),
    st.integers(1, 12_000).map(lambda k: 10**k - 1),
)
INTEGERS = st.builds(lambda n, sign: sign * n, MAGNITUDES, st.sampled_from([1, -1]))


def decimal15_by_division(value: Fraction) -> str:
    """``decimal15`` of a Fraction as it was: Decimal() of both terms, divided at 15 digits."""
    with localcontext() as ctx:
        ctx.prec = 15
        return str(Decimal(value.numerator) / Decimal(value.denominator))


class TestIntegerText:
    """int_decimal and text_int, at the interpreter's own digit limit, against Decimal.

    Neither str(Decimal(n)) nor int(Decimal(s)) is held to that limit, and neither
    shares code with the split in halves.
    """

    @settings(max_examples=150, deadline=None)
    @given(INTEGERS)
    def test_int_decimal_writes_what_decimal_writes(self, n):
        assert str(int_decimal(n)) == str(Decimal(n))

    @settings(max_examples=150, deadline=None)
    @given(INTEGERS, st.sampled_from(["", " ", "\t\n"]), st.booleans(), st.booleans())
    def test_text_int_reads_what_decimal_reads(self, n, pad, plus, grouped):
        digits = str(Decimal(abs(n)))
        if grouped:
            digits = "_".join(digits[i : i + 3] for i in range(0, len(digits), 3))
        text = f"{pad}{'-' if n < 0 else '+' if plus else ''}{digits}{pad}"
        assert text_int(text, "n") == int(Decimal(text)) == n

    @pytest.mark.parametrize("form", ["", "-", "{}_", "_{}", "{}__1", "{} {}", "+-{}", "{}.0",
                                      "{}e5", "{}x", "0x{}"])
    @pytest.mark.parametrize("digits", ["12", "1" * 5000], ids=["short", "long"])
    def test_text_int_refuses_what_int_refuses(self, form, digits):
        text = form.format(digits, digits)
        with pytest.raises(ValueError):
            int(text.replace(digits, "12"))
        with pytest.raises(ValueError):
            text_int(text, "n")

    def test_text_int_refuses_text_past_the_digit_bound_before_reading_it(self):
        # the length alone decides: text that int() would refuse is refused as too long
        for text in ("9" * (MAX_DECIMAL_DIGITS + 1), "x" * (MAX_DECIMAL_DIGITS + 1)):
            with pytest.raises(CapacityError, match=r"^field of 333336 digits exceeds the "
                                                    r"1000000-bit budget$"):
                text_int(text, "field")
        assert text_int("1" + "0" * (MAX_DECIMAL_DIGITS - 1), "field") == 10 ** 333334

    def test_text_int_reads_any_decimal_digit(self):
        threes = text_int("3" * 5000, "n")
        assert text_int("\u0663" * 5000, "n") == threes == int(Decimal("3" * 5000))

    def test_the_top_of_the_budget(self):
        n = 2**999_999
        text = str(int_decimal(n))
        assert text == str(Decimal(n)) and len(text) == 301_030
        assert str(int_decimal(-n)) == "-" + text
        assert text_int(text, "n") == n and text_int("-" + text, "n") == -n
        assert text_int(str(int_decimal(n - 1)), "n") == n - 1

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.builds(Fraction, INTEGERS, INTEGERS.filter(bool)),
        st.builds(lambda q, d: Fraction(q * d, d), INTEGERS, INTEGERS.filter(bool)),
        st.builds(lambda m, e: Fraction(m) * Fraction(10) ** e,
                  st.integers(-(10**20), 10**20), st.integers(-30, 30)),
        st.builds(lambda m, e: (10 * m + 5) / Fraction(10) ** e,  # a tie at the 16th digit
                  st.integers(10**14, 10**15 - 1), st.integers(-30, 30)),
    ))
    def test_decimal15_rounds_as_decimal_division(self, value):
        assert decimal15(value) == decimal15_by_division(value)
