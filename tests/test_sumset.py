import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    BlockSet,
    CapacityError,
    ConfigError,
    GrowthSchedule,
    b_member,
    block_index,
    c_upper_report,
    count_b,
    enumerate_c,
    grow,
    legendre_count,
    ratio_point,
    s1_bound,
    s2_bound,
    split_s1_s2,
)

POLY = GrowthSchedule.polynomial()
PAPER = GrowthSchedule.paper()


def brute_sums(x, blocks):
    """Oracle: explicit double loop over powers and members, dedup via set."""
    members = [n for n in range(1, x + 1) if b_member(n, blocks)]
    values = set()
    a = 1
    while 2**a < x:
        for b in members:
            if 2**a + b <= x:
                values.add(2**a + b)
        a += 1
    return values


def brute_split(x, blocks):
    """Oracle partition: track top-block and lower-block witnesses separately."""
    j = block_index(x, blocks.schedule)
    top = range(blocks.level(j).lo, grow(blocks.schedule, j + 1)) if j >= 1 else range(0)
    members = [b for b in range(1, x) if b_member(b, blocks)]
    with_top, with_rest = set(), set()
    a = 1
    while 2**a < x:
        for b in members:
            if b > x - 2**a:
                break
            c = 2**a + b
            if b in top:
                with_top.add(c)
            else:
                with_rest.add(c)
        a += 1
    return with_top, with_rest


class TestEnumerate:
    @pytest.mark.parametrize("x,expected", [(4, 0), (5, 1), (20, 11)])
    def test_small_examples(self, poly_blocks, x, expected):
        count, members = enumerate_c(x, poly_blocks)
        assert count == expected
        assert int(np.count_nonzero(members)) == expected

    def test_matches_brute_force(self, poly_blocks, paper_blocks):
        for blocks in (poly_blocks, paper_blocks):
            for x in (5, 17, 64, 300, 1000, 2500):
                count, members = enumerate_c(x, blocks)
                oracle = brute_sums(x, blocks)
                assert count == len(oracle)
                assert set(np.flatnonzero(members).tolist()) == oracle

    def test_dedup_equals_sort_unique(self, poly_blocks):
        # multiset route: collect with duplicates, then sort-unique
        x = 10**4
        raw = []
        a = 1
        while 2**a < x:
            for blk in map(poly_blocks.level, range(1, poly_blocks.max_t + 1)):
                if blk.lo > x - 2**a:
                    break
                b = ((blk.lo + blk.modulus - 1) // blk.modulus) * blk.modulus
                while b < grow(POLY, blk.t + 1) and b <= x - 2**a:
                    raw.append(2**a + b)
                    b += blk.modulus
            a += 1
        count, _ = enumerate_c(x, poly_blocks)
        assert count == len(sorted(set(raw)))

    def test_budget_capacity(self, poly_blocks):
        with pytest.raises(CapacityError):
            enumerate_c(10**6, poly_blocks, budget=10**5)

    def test_x_below_one_rejected(self, poly_blocks):
        with pytest.raises(ValueError):
            enumerate_c(0, poly_blocks)


class TestSplit:
    def test_x20_all_rest(self, poly_blocks):
        report = split_s1_s2(20, poly_blocks)
        assert report.j == 2
        assert report.s1_count == 0
        assert report.s2_count == 11
        assert report.s1_overlap == 0

    def test_partition_identity(self, poly_blocks):
        for x in (100, 600, 1000, 5000):
            report = split_s1_s2(x, poly_blocks)
            count, _ = enumerate_c(x, poly_blocks)
            assert report.s1_count + report.s2_count == report.c_count == count

    def test_matches_brute_partition(self, poly_blocks):
        for x in (20, 100, 600, 1500):
            report = split_s1_s2(x, poly_blocks)
            with_top, with_rest = brute_split(x, poly_blocks)
            assert report.s1_count == len(with_top)
            assert report.s2_count == len(with_rest - with_top)
            assert report.s1_overlap == len(with_top & with_rest)

    def test_top_witness_values_coprime_to_top_modulus(self, poly_blocks, split_oracle,
                                                         odd_primes_ref):
        for x in (600, 2000, 20000):
            j, top, _ = split_oracle(x, POLY)
            d = math.prod(odd_primes_ref[:j])
            values = np.flatnonzero(top)
            assert values.size == split_s1_s2(x, poly_blocks).s1_count
            assert all(math.gcd(int(c), d) == 1 for c in values)

    def test_sqrt_check_at_20(self, poly_blocks):
        assert split_s1_s2(20, poly_blocks).sqrt_check is True

    # [1, 4, 30] keeps block 2 (d = 15, where 2^a repeats mod d every 4 powers)
    # on top up to 2^30, so many powers share a residue class there
    @pytest.mark.parametrize(
        "schedule",
        [PAPER, POLY, GrowthSchedule.custom([1, 4, 30]), GrowthSchedule.custom([20, 40]),
         GrowthSchedule.custom([2, 5, 9, 14, 20, 27, 35])],
        ids=["paper", "polynomial", "custom-1-4-30", "custom-20-40", "custom-7"],
    )
    def test_matches_bitmap_oracle(self, schedule, split_oracle):
        for x in (1, 2, 3, 20, 32, 100, 1000, 4097, 65535, 65536, 10**5, 2**20 - 1, 10**6):
            blocks = BlockSet.covering(schedule, x)
            report = split_s1_s2(x, blocks)
            j, top, rest = split_oracle(x, schedule)
            c = int(np.count_nonzero(top | rest))
            s1 = int(np.count_nonzero(top))
            overlap = int(np.count_nonzero(top & rest))
            assert report.j == j
            assert (report.c_count, report.s1_count, report.s2_count, report.s1_overlap) == (
                c, s1, c - s1, overlap
            ), x
            assert enumerate_c(x, blocks)[0] == c

    # c_upper_report adds the bound chain to the split: at custom 1..23, x = 2^22 lies in
    # window 22, whose modulus d_22 has 2^22 squarefree divisors, 13,942 of them up to x
    @pytest.mark.parametrize(
        "report,schedule,x",
        [(split_s1_s2, PAPER, 10**6), (split_s1_s2, POLY, 10**6),
         (c_upper_report, GrowthSchedule.custom(range(1, 24)), 2**22)],
        ids=["paper_blocks", "poly_blocks", "c_upper_report-custom-1-23"],
    )
    def test_split_holds_one_byte_per_value(self, report, schedule, x):
        blocks = BlockSet.covering(schedule, x)
        report(1000, blocks)  # first-call set-up stays outside the measurement
        tracemalloc.start()
        try:
            report(x, blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (x + 1) + 65536


def s1_oracle(x, kind):
    """s1 on the paper or polynomial schedule from its definition alone: no block set, no
    library code.

    Window j is the last with G(j) = 2^e(j) <= x, where e(t) = 2^(t*t) on paper and t*t on
    polynomial; d_j is the product of the first j odd primes, and ``first`` the first multiple
    of d_j from G(j) on. Power 2^a gives the class 2^a mod d_j from 2^a + first up to x; those
    classes are distinct for the first ord_{d_j}(2) powers and repeat after, so only the first
    M powers count.
    """
    e = (lambda t: 1 << t * t) if kind == "paper" else (lambda t: t * t)
    j = 1
    while e(j + 1) <= x.bit_length() - 1:
        j += 1
    d = math.prod(sympy.prime(i) for i in range(2, j + 2))
    first = -(-(1 << e(j)) // d) * d
    powers = min((x - first).bit_length() - 1, sympy.n_order(2, d))
    return sum((x - (1 << a) - first) // d + 1 for a in range(1, powers + 1))


class TestTopSumsAtScale:
    # one step per power up to the period of 2^a mod d_j: 12 at paper 2^65535 - 1 (d_3 = 105)
    # and 60 at paper 2^999999 - 1 (d_4 = 1155); on polynomial ord_{d_j}(2) exceeds
    # floor(log2 x), so 9,999 at 2^10000 - 1 (d_99) and 999,998 at 2^999999 - 1 (d_999), where
    # the oracle's one division per power would take minutes and only the time is checked
    @pytest.mark.parametrize(
        "kind,bits,seconds",
        [("paper", 65535, 0.1), ("paper", 999_999, 1.0), ("polynomial", 10_000, 1.0),
         ("polynomial", 999_999, 10.0)],
    )
    def test_s1_matches_the_oracle_in_bounded_time(self, kind, bits, seconds):
        from sumsetlab.sumset import _count_top_sums

        x = (1 << bits) - 1
        blocks = BlockSet.covering(GrowthSchedule(kind), x)
        j = blocks.index(x)
        blocks.level(j)  # the block is built outside the measurement
        start = time.perf_counter()
        s1 = _count_top_sums(x, blocks, j)
        elapsed = time.perf_counter() - start
        if (kind, bits) != ("polynomial", 999_999):
            assert s1 == s1_oracle(x, kind)
        assert elapsed < seconds, elapsed


class TestBounds:
    def test_s1_bound_values(self, poly_blocks):
        assert s1_bound(100, poly_blocks) == Fraction(172, 3)
        assert s1_bound(20, poly_blocks) == Fraction(44, 3)
        assert s1_bound(1, poly_blocks) == 1  # j = 0: no sieve

    def test_s1_bound_dominates_legendre(self, poly_blocks, odd_primes_ref):
        for x in (20, 100, 600, 10**5):
            j = block_index(x, POLY)
            exact = legendre_count(x, odd_primes_ref[:j])
            assert Fraction(exact) <= s1_bound(x, poly_blocks)

    def test_s2_bound_values(self, poly_blocks, paper_blocks):
        assert s2_bound(20, poly_blocks) == Fraction(70, 3)
        assert s2_bound(600, poly_blocks) == 468
        assert s2_bound(2**20, paper_blocks) == Fraction(2097398, 3)

    def test_bounds_refuse_a_block_the_set_does_not_hold(self):
        # x = 10^6 lies in polynomial block 4, above the two blocks this set holds
        shallow = BlockSet.materialize(POLY, 2)
        for bound in (s1_bound, s2_bound, c_upper_report):
            with pytest.raises(CapacityError, match=r"^block \d not materialized \(max_t=2\)"):
                bound(10**6, shallow)

    def test_s2_bound_inapplicable(self, poly_blocks):
        with pytest.raises(ConfigError, match="^s2 bound needs block index >= 2, got 1 at x=5$"):
            s2_bound(5, poly_blocks)

    def test_counts_below_bounds(self, poly_blocks):
        for x in (20, 600, 5000, 10**5):
            report = c_upper_report(x, poly_blocks)
            assert Fraction(report.s1_count) <= report.s1_bound
            assert Fraction(report.s2_count) <= report.s2_bound
            assert Fraction(report.c_count) <= report.c_bound
            assert Fraction(report.s1_count) <= Fraction(report.s1_legendre)

    def test_report_inapplicable_below_second_block(self, poly_blocks):
        with pytest.raises(ConfigError,
                           match="^bound chain needs block index >= 2, got 1 at x=5$"):
            c_upper_report(5, poly_blocks)

    def test_report_checks_block_index_before_enumerating(self, monkeypatch):
        # windows at 2^20 and 2^40 leave x = 10^8 in block 1, and 2*10^8 past the budget too
        from sumsetlab import sumset

        def no_enumeration(*args):
            raise AssertionError("c_upper_report enumerated before its block-index check")

        monkeypatch.setattr(sumset, "split_s1_s2", no_enumeration)
        blocks = BlockSet.covering(GrowthSchedule.custom([20, 40]), 2 * 10**8)
        for x in (10**8, 2 * 10**8):
            with pytest.raises(ConfigError, match=f"^bound chain needs block index >= 2, "
                                                  f"got 1 at x={x}$"):
                c_upper_report(x, blocks)
        with pytest.raises(ValueError, match="^x must be >= 1, got 0$"):
            c_upper_report(0, blocks)

    def test_density_declines(self, poly_blocks):
        small = c_upper_report(10**3, poly_blocks)
        large = c_upper_report(10**5, poly_blocks)
        assert large.density < small.density

    def test_legendre_at_pipeline_scale(self):
        # re-assert the sieve identity at x = 1e5 against a gcd scan
        x = 10**5
        primes = (3, 5, 7, 11)
        prod = math.prod(primes)
        scan = int(np.count_nonzero(np.gcd(np.arange(1, x + 1, dtype=np.int64), prod) == 1))
        assert legendre_count(x, primes) == scan


class TestRatioScan:
    def test_three_point_grid(self, poly_blocks):
        points = [ratio_point(x, poly_blocks) for x in (10**3, 10**4, 10**5)]
        assert [p.x for p in points] == [10**3, 10**4, 10**5]
        for p in points:
            assert p.ratio is not None and p.ratio > 0
            assert p.ratio == Fraction(p.c_count, p.b_count)

    def test_singleton_grid(self, poly_blocks):
        point = ratio_point(5, poly_blocks)
        assert (point.b_count, point.c_count) == (1, 1)
        assert point.ratio == 1

    def test_empty_blockset_gives_none_ratio(self):
        blocks = BlockSet.materialize(POLY, 1)
        point = ratio_point(2, blocks)
        assert point.b_count == 0 and point.ratio is None


class TestConsistencyWithCounts:
    def test_counts_agree_with_blocks_module(self, poly_blocks):
        for x in (50, 700, 12000):
            assert ratio_point(x, poly_blocks).b_count == count_b(x, poly_blocks)


ODD_PRIMES = (3, 5, 7, 11, 13)


@st.composite
def custom_windows(draw):
    """A custom schedule of 2..6 exponents <= 14 and an x <= 2^12 below its last boundary.

    Windows 1..n-1 of an n-exponent schedule have defined ends, so x < 2^e(n)
    keeps x's window and the one above the block set's top defined. x is
    drawn inside a drawn window (0 is the stretch below G(1)).
    """
    first = draw(st.integers(1, 3))
    rest = draw(st.sets(st.integers(first + 1, 14), min_size=1, max_size=5))
    exponents = [first, *sorted(rest)]
    windows = [t for t in range(1, len(exponents)) if exponents[t - 1] <= 12]
    t = draw(st.sampled_from([0, *windows]))
    lo = 1 if t == 0 else 2 ** exponents[t - 1]
    x = draw(st.integers(lo, min(2**12, 2 ** exponents[t] - 1)))
    return exponents, x


def custom_member(n, exponents):
    """Membership read off the exponents: n in window t is a multiple of d_t."""
    for t in range(1, len(exponents)):
        if 2 ** exponents[t - 1] <= n < 2 ** exponents[t]:
            return n % math.prod(ODD_PRIMES[:t]) == 0
    return False


@st.composite
def custom_schedules(draw):
    """2..6 strictly increasing exponents <= 16 and an x <= 20000 below the last boundary."""
    exponents = sorted(draw(st.sets(st.integers(1, 16), min_size=2, max_size=6)))
    x = draw(st.integers(1, min(20000, 2 ** exponents[-1] - 1)))
    return exponents, x


class TestCustomScheduleWindows:
    @settings(max_examples=60, deadline=None)
    @given(custom_windows())
    def test_count_and_split_match_scans(self, case):
        exponents, x = case
        blocks = BlockSet.covering(GrowthSchedule.custom(exponents), x)
        running = 0
        for n in range(1, x + 1):
            running += custom_member(n, exponents)
            assert count_b(n, blocks) == running
        report = split_s1_s2(x, blocks)
        with_top, with_rest = brute_split(x, blocks)
        assert report.s1_count == len(with_top)
        assert report.s2_count == len(with_rest - with_top)
        assert report.s1_overlap == len(with_top & with_rest)
        j = report.j
        if j < 2:
            return
        # the bound chain in closed form from the exponents and the first odd primes
        full = c_upper_report(x, blocks)
        sieve = [math.prod(Fraction(p - 1, p) for p in ODD_PRIMES[:t]) for t in range(j + 1)]
        s1b = x * sieve[j] + 2**j
        s2b = x * sieve[j - 1] + 2 ** (j - 1) + 2 ** exponents[j - 2] * (x.bit_length() - 1)
        coprime = sum(math.gcd(n, math.prod(ODD_PRIMES[:j])) == 1 for n in range(1, x + 1))
        assert (full.s1_bound, full.s2_bound, full.c_bound) == (s1b, s2b, s1b + s2b)
        assert full.s1_legendre == coprime
        assert full.s1_count <= full.s1_legendre <= full.s1_bound
        assert full.s2_count <= full.s2_bound
        assert full.c_count <= full.c_bound

    @settings(max_examples=40, deadline=None)
    @given(custom_schedules())
    def test_split_matches_brute_split_sets(self, case):
        exponents, x = case
        blocks = BlockSet.covering(GrowthSchedule.custom(exponents), x)
        report = split_s1_s2(x, blocks)
        with_top, with_rest = brute_split(x, blocks)
        assert report.c_count == len(with_top | with_rest)
        assert report.s1_count == len(with_top)
        assert report.s2_count == len(with_rest - with_top)
        assert report.s1_overlap == len(with_top & with_rest)
