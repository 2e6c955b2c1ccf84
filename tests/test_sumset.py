import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    BlockSet,
    CapacityError,
    GrowthSchedule,
    InapplicableError,
    b_member,
    block_index,
    c_upper_report,
    count_b,
    enumerate_c,
    grow,
    legendre_count,
    ratio_scan,
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
    top = range(blocks.blocks[j - 1].lo, grow(blocks.schedule, j + 1)) if j >= 1 else range(0)
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
            for blk in poly_blocks.blocks:
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

    def test_top_witness_values_coprime_to_top_modulus(self, poly_blocks):
        from sumsetlab.sumset import _mark_sums

        for x in (600, 2000, 20000):
            j, top, _ = _mark_sums(x, poly_blocks, split=True)
            d = poly_blocks.blocks[j - 1].modulus
            values = np.flatnonzero(top)
            assert values.size == split_s1_s2(x, poly_blocks).s1_count
            assert all(math.gcd(int(c), d) == 1 for c in values)

    def test_sqrt_check_at_20(self, poly_blocks):
        assert split_s1_s2(20, poly_blocks).sqrt_check is True


class TestBounds:
    def test_s1_bound_values(self, poly_blocks, table_small):
        assert s1_bound(100, poly_blocks, table_small) == Fraction(172, 3)
        assert s1_bound(20, poly_blocks, table_small) == Fraction(44, 3)
        assert s1_bound(0, poly_blocks, table_small, j=2) == 4
        assert s1_bound(1, poly_blocks, table_small) == 1  # j = 0: no sieve

    def test_s1_bound_dominates_legendre(self, poly_blocks, table_small):
        for x in (20, 100, 600, 10**5):
            j = block_index(x, POLY)
            odd = [table_small.odd_prime(i) for i in range(1, j + 1)]
            exact = legendre_count(x, odd)
            assert Fraction(exact) <= s1_bound(x, poly_blocks, table_small)

    def test_s2_bound_values(self, poly_blocks, paper_blocks, table_small):
        assert s2_bound(20, poly_blocks, table_small) == Fraction(70, 3)
        assert s2_bound(600, poly_blocks, table_small) == 468
        assert s2_bound(2**20, paper_blocks, table_small) == Fraction(2097398, 3)

    def test_s2_bound_inapplicable(self, poly_blocks, table_small):
        with pytest.raises(InapplicableError):
            s2_bound(5, poly_blocks, table_small)

    def test_counts_below_bounds(self, poly_blocks, table_small):
        for x in (20, 600, 5000, 10**5):
            report = c_upper_report(x, poly_blocks, table_small)
            assert Fraction(report.s1_count) <= report.s1_bound
            assert Fraction(report.s2_count) <= report.s2_bound
            assert Fraction(report.c_count) <= report.c_bound
            assert Fraction(report.s1_count) <= Fraction(report.s1_legendre)

    def test_report_inapplicable_below_second_block(self, poly_blocks, table_small):
        with pytest.raises(InapplicableError):
            c_upper_report(5, poly_blocks, table_small)

    def test_density_declines(self, poly_blocks, table_small):
        small = c_upper_report(10**3, poly_blocks, table_small)
        large = c_upper_report(10**5, poly_blocks, table_small)
        assert large.density < small.density

    def test_legendre_at_pipeline_scale(self, table_small):
        # re-assert the sieve identity at x = 1e5 against a gcd scan
        x = 10**5
        primes = (3, 5, 7, 11)
        prod = math.prod(primes)
        scan = int(np.count_nonzero(np.gcd(np.arange(1, x + 1, dtype=np.int64), prod) == 1))
        assert legendre_count(x, primes) == scan


class TestRatioScan:
    def test_three_point_grid(self, poly_blocks):
        points = ratio_scan([10**3, 10**4, 10**5], poly_blocks)
        assert [p.x for p in points] == [10**3, 10**4, 10**5]
        for p in points:
            assert p.ratio is not None and p.ratio > 0
            assert p.ratio == Fraction(p.c_count, p.b_count)

    def test_singleton_grid(self, poly_blocks):
        (point,) = ratio_scan([5], poly_blocks)
        assert (point.b_count, point.c_count) == (1, 1)
        assert point.ratio == 1

    def test_empty_grid(self, poly_blocks):
        assert ratio_scan([], poly_blocks) == []

    def test_unordered_grid_rejected(self, poly_blocks):
        with pytest.raises(ValueError):
            ratio_scan([100, 50], poly_blocks)

    def test_empty_blockset_gives_none_ratio(self, table_small):
        blocks = BlockSet.materialize(POLY, 1, table_small)
        (point,) = ratio_scan([2], blocks)
        assert point.b_count == 0 and point.ratio is None


class TestConsistencyWithCounts:
    def test_counts_agree_with_blocks_module(self, poly_blocks):
        for x in (50, 700, 12000):
            points = ratio_scan([x], poly_blocks)
            assert points[0].b_count == count_b(x, poly_blocks)


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
