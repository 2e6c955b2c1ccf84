import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import arith as arith_module
from sumsetlab.arith import primorial_primes
from sumsetlab import (
    BlockSet,
    CapacityError,
    ConfigError,
    GrowthSchedule,
    b_member,
    block_index,
    conjecture_ratio,
    count_b,
    count_b_lower_bound,
    grow,
    j_window_check,
    ratio_point,
    s1_bound,
    s2_bound,
    split_s1_s2,
)

PAPER = GrowthSchedule.paper()
POLY = GrowthSchedule.polynomial()


class TestGrowthSchedule:
    def test_paper_boundaries(self):
        assert grow(PAPER, 1) == 4
        assert grow(PAPER, 2) == 65536
        assert grow(PAPER, 3) == 2**512

    def test_polynomial_boundaries(self):
        assert [grow(POLY, t) for t in (1, 2, 3, 4)] == [2, 16, 512, 65536]

    def test_custom_schedule(self):
        custom = GrowthSchedule.custom([1, 4, 9])
        assert [grow(custom, t) for t in (1, 2, 3)] == [2, 16, 512]
        with pytest.raises(CapacityError):
            grow(custom, 4)

    def test_custom_validation(self):
        with pytest.raises(ConfigError):
            GrowthSchedule.custom([])
        with pytest.raises(ConfigError):
            GrowthSchedule.custom([0, 4])
        with pytest.raises(ConfigError):
            GrowthSchedule.custom([4, 4])
        with pytest.raises(ConfigError):
            GrowthSchedule("nosuch")

    def test_bit_budget(self):
        with pytest.raises(CapacityError):
            grow(PAPER, 5)
        edge = GrowthSchedule.custom([999_999, 1_000_000])
        assert grow(edge, 1) == 1 << 999_999
        with pytest.raises(CapacityError):
            grow(edge, 2)

    def test_json_round_trip(self):
        for schedule in (PAPER, POLY, GrowthSchedule.custom([2, 5, 11])):
            assert GrowthSchedule.from_json(schedule.to_json()) == schedule


class TestBlockIndex:
    @pytest.mark.parametrize(
        "x,schedule,expected",
        [
            (3, PAPER, 0),
            (4, PAPER, 1),
            (100000, PAPER, 2),
            (2**512 - 1, PAPER, 2),
            (2**512, PAPER, 3),
            (20, POLY, 2),
            (1, POLY, 0),
            (2, POLY, 1),
            (511, POLY, 2),
            (512, POLY, 3),
        ],
    )
    def test_values(self, x, schedule, expected):
        assert block_index(x, schedule) == expected

    def test_boundary_sweep(self):
        for t in range(1, 6):
            boundary = grow(POLY, t)
            assert block_index(boundary - 1, POLY) == t - 1
            assert block_index(boundary, POLY) == t
            assert block_index(boundary + 1, POLY) == t

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_closed_form_matches_a_loop_over_boundaries(self, data):
        schedule = data.draw(st.one_of(
            st.just(PAPER),
            st.just(POLY),
            st.lists(st.integers(1, 3000), min_size=1, max_size=12, unique=True)
            .map(sorted).map(GrowthSchedule.custom),
        ))
        exponents = schedule.exponents or map(schedule.exponent, range(1, 56))
        starts = [e for e in exponents if e <= 3000]
        x = data.draw(st.one_of(
            st.integers(0, 2**3000),
            st.sampled_from([0, 1]),
            st.builds(lambda e, delta: 2**e + delta,
                      st.sampled_from(starts), st.sampled_from([-1, 0, 1])),
        ))
        j = 0  # count the window starts 2^e(t) <= x, up to the schedule's last
        last = len(schedule.exponents) if schedule.kind == "custom" else math.inf
        while j < last and 2 ** schedule.exponent(j + 1) <= x:
            j += 1
        assert block_index(x, schedule) == j


class TestJWindow:
    def test_at_2_pow_16(self):
        check = j_window_check(65536, PAPER)
        assert check.j == 2
        # mpmath references
        assert check.lower == pytest.approx(1.5511530555229284, abs=1e-12)
        assert check.upper == pytest.approx(3.726249388892323, abs=1e-12)
        assert check.holds

    def test_at_2_pow_512(self):
        check = j_window_check(2**512, PAPER)
        assert check.j == 3
        assert check.lower == pytest.approx(2.4231821443007217, abs=1e-12)
        assert check.holds

    def test_at_4(self):
        check = j_window_check(4, PAPER)
        assert check.j == 1
        assert check.lower == pytest.approx(0.5715192559995516, abs=1e-12)
        assert check.upper == pytest.approx(1.3729291708680421, abs=1e-12)
        assert check.holds

    def test_non_paper_schedule_rejected(self):
        with pytest.raises(ConfigError, match="^the block-index window applies to the paper "
                                              "schedule only$"):
            j_window_check(100, POLY)

    def test_below_first_boundary_rejected(self):
        with pytest.raises(ValueError):
            j_window_check(3, PAPER)


class TestMembership:
    def test_examples(self, paper_blocks):
        assert b_member(6, paper_blocks) is True
        assert b_member(65537, paper_blocks) is False
        assert b_member(65550, paper_blocks) is True

    def test_below_first_window(self, paper_blocks):
        assert b_member(3, paper_blocks) is False

    def test_capacity_never_silently_false(self):
        shallow = BlockSet.materialize(POLY, 2)
        with pytest.raises(CapacityError):
            b_member(512, shallow)

    def test_index_checks_depth(self):
        # polynomial windows: block 1 is [2, 16), block 2 is [16, 512)
        shallow = BlockSet.materialize(POLY, 2)
        assert [shallow.index(n) for n in (0, 1, 2, 15, 16, 511)] == [0, 0, 1, 1, 2, 2]
        with pytest.raises(CapacityError, match="^block 3 not materialized"):
            shallow.index(512)

    def test_member_lies_in_exactly_one_block(self, poly_blocks, odd_primes_ref):
        for n in range(1, 3000):
            containing = [
                t
                for t in range(1, poly_blocks.max_t + 1)
                if 2 ** POLY.exponent(t) <= n < 2 ** POLY.exponent(t + 1)
                and n % math.prod(odd_primes_ref[:t]) == 0
            ]
            assert len(containing) == (1 if b_member(n, poly_blocks) else 0)

    def test_windows_tile_without_gaps(self, poly_blocks):
        for t in range(1, poly_blocks.max_t):
            prev, nxt = poly_blocks.level(t), poly_blocks.level(t + 1)
            assert nxt.lo == grow(POLY, prev.t + 1)
            assert prev.lo < nxt.lo

    def test_block_moduli_are_odd_primorials(self, poly_blocks, odd_primes_ref):
        for t in range(1, poly_blocks.max_t + 1):
            blk = poly_blocks.level(t)
            assert blk.modulus == math.prod(odd_primes_ref[: blk.t])
            assert blk.lo == grow(POLY, blk.t)


class TestCountB:
    def test_examples(self, paper_blocks):
        assert count_b(100, paper_blocks) == 32
        assert count_b(100000, paper_blocks) == 24141
        assert count_b(3, paper_blocks) == 0

    def test_matches_membership_scan(self, poly_blocks, paper_blocks):
        for blocks, limit in ((poly_blocks, 20000), (paper_blocks, 20000)):
            running = 0
            for n in range(1, limit + 1):
                if b_member(n, blocks):
                    running += 1
                assert count_b(n, blocks) == running

    def test_non_decreasing_across_boundaries(self, poly_blocks):
        xs = []
        for t in range(1, 6):
            boundary = grow(POLY, t)
            xs.extend([boundary - 1, boundary, boundary + 1])
        xs.sort()
        counts = [count_b(x, poly_blocks) for x in xs]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_block_increment_is_exact_multiple_count(self, poly_blocks, odd_primes_ref):
        for t in range(2, 6):
            hi = grow(POLY, t)
            lo = grow(POLY, t - 1)
            d = math.prod(odd_primes_ref[: t - 1])
            increment = count_b(hi - 1, poly_blocks) - count_b(lo - 1, poly_blocks)
            multiples = (hi - 1) // d - (lo - 1) // d
            assert increment == multiples

    def test_custom_schedule_exhausted_at_its_last_boundary(self):
        # 512 = G(3) opens a window whose end e(4) the schedule never defines
        with pytest.raises(CapacityError):
            count_b(512, BlockSet.covering(GrowthSchedule.custom([1, 4, 9]), 512))

    def test_huge_x_pure_floor_arithmetic(self, paper_blocks):
        x = 2**1000 + 7
        expected = (
            (65535 // 3 - 3 // 3)
            + ((2**512 - 1) // 15 - 65535 // 15)
            + (x // 105 - (2**512 - 1) // 105)
        )
        assert count_b(x, paper_blocks) == expected


def summed_count_b(x, schedule, primes):
    """count_b as a sum over windows: floor(upper/d) - floor((lo-1)/d) per window up to x.

    Window t is [2^e(t), 2^e(t+1)) and d the product of the first t of ``primes``, cut at
    x; nothing is read from a block set, and no quotient is carried from one window to
    the next, unlike the library's levels.
    """
    total, t, d = 0, 1, 1
    while (lo := 2 ** schedule.exponent(t)) <= x:
        d *= primes[t - 1]
        upper = min(x, 2 ** schedule.exponent(t + 1) - 1)
        total += upper // d - (lo - 1) // d
        t += 1
    return total


def assert_levels_match_sum(blocks, primes):
    """L_t and count_b at G(t) - 1, G(t) and G(t) + 1 for every level, against the sum."""
    for t in range(1, blocks.max_t + 1):
        lo = 2 ** blocks.schedule.exponent(t)
        assert blocks.level(t).below == summed_count_b(lo - 1, blocks.schedule, primes)
        for x in (lo - 1, lo, lo + 1):
            assert count_b(x, blocks) == summed_count_b(x, blocks.schedule, primes)


class TestLevelTable:
    """L_t = count_b(G(t) - 1) as ``level(t).below``, and ``Block.first``, the window's first
    member, against the summed count."""

    @pytest.mark.parametrize("schedule,max_t", [(PAPER, 4), (POLY, 80)], ids=["paper", "poly"])
    def test_table_matches_summed_count(self, schedule, max_t, odd_primes_ref):
        assert_levels_match_sum(BlockSet.materialize(schedule, max_t), odd_primes_ref)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 600), min_size=2, max_size=9, unique=True).map(sorted))
    def test_table_matches_summed_count_on_custom_schedules(self, odd_primes_ref, exponents):
        blocks = BlockSet.materialize(GrowthSchedule.custom(exponents), len(exponents) - 1)
        assert_levels_match_sum(blocks, odd_primes_ref)
        assert blocks.level(1).below == 0

    def test_count_matches_summed_count_at_contract_scale(self, odd_primes_ref):
        # 499 lower windows of up to 249,001 bits
        for x in (2**250000 - 1, 2**250000 + 12345):
            blocks = BlockSet.covering(POLY, x)
            assert count_b(x, blocks) == summed_count_b(x, POLY, odd_primes_ref)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 14), min_size=2, max_size=6, unique=True).map(sorted))
    def test_first_is_the_first_multiple_in_the_window(self, exponents):
        blocks = BlockSet.materialize(GrowthSchedule.custom(exponents), len(exponents) - 1)
        for blk in map(blocks.level, range(1, blocks.max_t + 1)):
            n = blk.lo
            while n % blk.modulus:
                n += 1
            assert blk.first == n

    def test_table_is_built_on_first_read_only(self, odd_primes_ref):
        x = 2**999999 - 1
        start = time.perf_counter()
        blocks = BlockSet.covering(POLY, x)
        assert time.perf_counter() - start < 0.1
        assert blocks.max_t == 999 and blocks._levels == {}
        # an over-budget enumeration refuses x before it counts anything
        with pytest.raises(CapacityError):
            split_s1_s2(x, blocks)
        with pytest.raises(CapacityError):
            ratio_point(x, blocks)
        assert blocks._levels == {}
        small = BlockSet.materialize(POLY, 6)
        assert count_b(10**6, small) == summed_count_b(10**6, POLY, odd_primes_ref)
        assert list(small._levels) == [4]


@st.composite
def schedules_and_reads(draw):
    """A polynomial or custom block set and the levels to read from it, in any order and
    with repeats, so that each read resumes from whichever lower level is already kept."""
    if draw(st.booleans()):
        schedule = POLY
        max_t = draw(st.integers(1, 40))
    else:
        exponents = draw(st.lists(st.integers(1, 400), min_size=2, max_size=10, unique=True))
        schedule = GrowthSchedule.custom(sorted(exponents))
        max_t = len(exponents) - 1
    reads = draw(st.lists(st.integers(1, max_t), min_size=1, max_size=2 * max_t))
    return BlockSet.materialize(schedule, max_t), reads


class TestCarry:
    """``level`` resumes the carry from the highest level it keeps below t, or from window 1."""

    @settings(max_examples=80, deadline=None)
    @given(schedules_and_reads())
    def test_levels_read_in_any_order_match_the_oracle(self, odd_primes_ref, case):
        blocks, reads = case
        for t in reads:
            blk = blocks.level(t)
            lo, d = 2 ** blocks.schedule.exponent(t), math.prod(odd_primes_ref[:t])
            expected = (t, d, lo, -(-lo // d) * d, summed_count_b(lo - 1, blocks.schedule,
                                                                   odd_primes_ref))
            assert (blk.t, blk.modulus, blk.lo, blk.first, blk.below) == expected
        assert sorted(blocks._levels) == sorted(set(reads))


class TestLevel:
    """BlockSet.level(t), block t built where it is read, against windows and moduli from
    2^e(t) and sympy's primes."""

    @pytest.mark.parametrize("schedule,max_t", [
        (PAPER, 4), (POLY, 80), (GrowthSchedule.custom([3, 7, 20, 64, 65, 300, 2000]), 6),
    ], ids=["paper", "poly", "custom"])
    def test_level_matches_oracle(self, schedule, max_t, odd_primes_ref):
        blocks = BlockSet.materialize(schedule, max_t)
        for t in range(1, max_t + 1):
            blk = blocks.level(t)
            lo, d = 2 ** schedule.exponent(t), math.prod(odd_primes_ref[:t])
            assert (blk.t, blk.lo, blk.modulus) == (t, lo, d)
            assert blk.first % d == 0 and 0 <= blk.first - lo < d

    def test_depth_is_checked(self, poly_blocks):
        with pytest.raises(ConfigError, match="^t must be >= 1, got 0$"):
            poly_blocks.level(0)
        with pytest.raises(CapacityError, match="^block 7 not materialized"):
            poly_blocks.level(poly_blocks.max_t + 1)

    def test_a_level_is_built_once(self):
        blocks = BlockSet.materialize(POLY, 6)
        blk = blocks.level(3)
        assert blocks.level(3) is blk
        # level 5 resumes from level 3; level 4, passed on the way, is not kept
        blocks.level(5)
        assert list(blocks._levels) == [3, 5]

    def test_a_count_holds_only_the_level_it_read(self):
        blocks = BlockSet.covering(POLY, 10**6)
        assert blocks.max_t == 4 and blocks._levels == {}
        count_b(10**6, blocks)
        assert list(blocks._levels) == [4]
        # both bounds take window 3's start from the schedule and d_3 from d_4, building no level
        count_b_lower_bound(10**6, blocks)
        s2_bound(10**6, blocks)
        assert list(blocks._levels) == [4]

    @staticmethod
    def _peak(x, schedule):
        tracemalloc.start()
        try:
            count_b(x, BlockSet.covering(schedule, x))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_linear_schedule_count_holds_no_table_of_moduli(self):
        # 20,000 windows; the moduli d_1..d_20000 alone take about 420 MiB together
        assert self._peak(2**20000, GrowthSchedule.custom(range(1, 20002))) < 16 * 2**20

    def test_polynomial_count_at_the_top_of_the_budget(self):
        # the carry across 999 windows holds one quotient and one count at a time, about
        # 1 MiB at its peak; a table of every count below the top window took about 40 MiB
        assert self._peak(2**999999 - 1, POLY) < 4 * 2**20


class TestLowerBound:
    def test_paper_examples(self, paper_blocks):
        assert count_b_lower_bound(100000, paper_blocks) == Fraction(120698, 5)
        assert float(count_b_lower_bound(100000, paper_blocks)) == pytest.approx(24139.6)
        assert count_b_lower_bound(65536, paper_blocks) == 21842

    def test_polynomial_example(self, poly_blocks):
        assert count_b_lower_bound(511, poly_blocks) == Fraction(107, 3)

    def test_inapplicable_below_second_block(self, paper_blocks):
        with pytest.raises(ConfigError,
                           match="^lower bound needs block index >= 2, got 1 at x=100$"):
            count_b_lower_bound(100, paper_blocks)

    def test_count_dominates_bound_on_boundary_grid(self, poly_blocks):
        grid = []
        for t in range(2, 6):
            boundary = grow(POLY, t)
            grid.extend([boundary - 1, boundary, boundary + 1])
        grid.extend([600, 5000, 40000, 65000])
        for x in sorted(set(grid)):
            if block_index(x, POLY) < 2:
                continue
            bound = count_b_lower_bound(x, poly_blocks)
            assert Fraction(count_b(x, poly_blocks)) >= bound

    def test_count_dominates_bound_at_paper_scale(self, paper_blocks):
        for x in (2**20, 2**20 + 1, 2**100, 2**512, 2**512 + 1, 2**1000):
            bound = count_b_lower_bound(x, paper_blocks)
            assert Fraction(count_b(x, paper_blocks)) >= bound


class TestConjectureRatio:
    def test_at_2_pow_20(self, paper_blocks):
        report = conjecture_ratio(2**20, paper_blocks)
        assert (report.a_count, report.b_count) == (20, 87380)
        assert report.ratio_exact == Fraction(20 * 87380, 2**20)
        assert report.conjecture_ratio == pytest.approx(1.6666412353515625, abs=1e-12)

    def test_at_1e5(self, paper_blocks):
        report = conjecture_ratio(100000, paper_blocks)
        assert (report.a_count, report.b_count) == (16, 24141)
        assert report.conjecture_ratio == pytest.approx(3.86256, abs=1e-9)

    def test_small_x_regime(self, paper_blocks):
        report = conjecture_ratio(4, paper_blocks)
        assert (report.a_count, report.b_count) == (2, 0)
        assert report.conjecture_ratio == 0.0

    def test_exceeds_one_at_paper_scale(self, paper_blocks):
        for x in (2**18, 2**20, 2**100, 2**600, 2**1000):
            report = conjecture_ratio(x, paper_blocks)
            assert report.j in (2, 3)
            assert report.ratio_exact > 1


# Paper-schedule oracle with nothing from the library: boundaries G(t) = 1 << 2**(t*t)
# and the odd primorials d_1..d_4. Every x below is under G(5) = 2^(2^25).
PAPER_G = [1 << 2 ** (t * t) for t in (1, 2, 3, 4)]
PAPER_D = [3, 15, 105, 1155]


def paper_oracle(x):
    """(j, count, lower bound) at x; window t holds the multiples of d_t in [G(t), G(t+1))."""
    j = sum(1 for g in PAPER_G if g <= x)
    count = 0
    for t in range(j):
        last = x if t == j - 1 else PAPER_G[t + 1] - 1
        count += last // PAPER_D[t] - (PAPER_G[t] - 1) // PAPER_D[t]
    lower = (
        Fraction(x - PAPER_G[j - 1], PAPER_D[j - 1])
        + Fraction(PAPER_G[j - 1] - PAPER_G[j - 2], PAPER_D[j - 2])
        - 2
    )
    return j, count, lower


class TestPaperScale:
    """Counts and bounds past 2^65536, where the top window's end G(5) is never built."""

    @pytest.mark.parametrize(
        "x,j",
        [(2**20000, 3), (2**70000, 4), (2**999999 - 1, 4)],
        ids=["2^20000", "2^70000", "2^999999-1"],
    )
    def test_counts_match_oracle(self, x, j):
        blocks = BlockSet.covering(PAPER, x)
        expected_j, count, lower = paper_oracle(x)
        assert block_index(x, PAPER) == expected_j == j
        assert count_b(x, blocks) == count
        assert count_b_lower_bound(x, blocks) == lower <= count

        report = conjecture_ratio(x, blocks)
        assert (report.j, report.b_count, report.b_lower_bound) == (j, count, lower)
        assert report.ratio_exact == Fraction((x.bit_length() - 1) * count, x) > 1

        sieve = [Fraction(1)]
        for p in (3, 5, 7, 11):
            sieve.append(sieve[-1] * Fraction(p - 1, p))
        assert s1_bound(x, blocks) == x * sieve[j] + 2**j
        small_b_pairs = PAPER_G[j - 2] * (x.bit_length() - 1)
        assert s2_bound(x, blocks) == x * sieve[j - 1] + 2 ** (j - 1) + small_b_pairs

    def test_materialize_depth(self):
        blocks = BlockSet.materialize(PAPER, 4)
        assert [blocks.level(t).lo for t in (1, 2, 3, 4)] == PAPER_G
        assert [blocks.level(t).modulus for t in (1, 2, 3, 4)] == PAPER_D
        assert blocks.primes == (3, 5, 7, 11)
        with pytest.raises(CapacityError):
            BlockSet.materialize(PAPER, 5)  # G(5) has 2^25 + 1 bits


class TestModulusBudget:
    """Block moduli d_t, like boundaries G(t), stay within the bit budget."""

    @pytest.mark.parametrize("t,message", [
        (5, "G(5) needs 33554433 bits"),
        (9, "G(9) needs 2^81 + 1 bits"),
        (20_000, "G(20000) needs 2^400000000 + 1 bits"),
        (10**6, "G(1000000) needs 2^1000000000000 + 1 bits"),
    ])
    def test_paper_depth_past_the_budget_is_refused_from_t(self, t, message):
        # e(t) = 2^(t*t) is not built: at t = 20000 it alone took 2.9 s and 50 MB
        for build in (grow, BlockSet.materialize):
            start = time.perf_counter()
            with pytest.raises(CapacityError) as refused:
                build(PAPER, t)
            assert time.perf_counter() - start < 0.05
            assert str(refused.value) == f"{message}, over the 1000000-bit budget"

    def test_the_first_primorial_past_the_budget(self, odd_primes_ref):
        # d_56116 has 999,991 bits and d_56117 1,000,011; a longer count sieves no further
        assert primorial_primes(56_116) == odd_primes_ref[:56_116]
        for count in (56_117, 10**6, 2**40):
            with pytest.raises(CapacityError) as refused:
                primorial_primes(count)
            assert str(refused.value) == (
                "d_56117 needs 1000011 bits, over the 1000000-bit budget"
            )

    def test_paper_and_polynomial_at_the_top_of_the_budget(self, odd_primes_ref):
        # the deepest block sets the contract reaches are built in full, as before
        x = 2**999_999
        paper, poly = BlockSet.covering(PAPER, x), BlockSet.covering(POLY, x)
        assert (paper.max_t, poly.max_t) == (4, 999)
        for blocks in (paper, poly):
            assert blocks.level(blocks.max_t).modulus == math.prod(odd_primes_ref[: blocks.max_t])

    def test_first_modulus_past_the_budget_is_refused(self, monkeypatch, odd_primes_ref):
        monkeypatch.setattr(arith_module, "DEFAULT_BIT_BUDGET", 10**5)
        # the first odd primorial past 10^5 bits, multiplied out exactly
        d, t = 1, 0
        while d.bit_length() <= 10**5:
            d *= odd_primes_ref[t]
            t += 1
        linear = GrowthSchedule.custom(range(1, 8002))  # 8000 windows below 2^8001
        with pytest.raises(CapacityError) as refused:
            BlockSet.materialize(linear, 8000)
        assert str(refused.value) == (
            f"d_{t} needs {d.bit_length()} bits, over the 100000-bit budget"
        )
        deepest = BlockSet.materialize(linear, t - 1)
        assert deepest.level(t - 1).modulus == d // odd_primes_ref[t - 1]
