import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from sumsetlab import (
    BlockSet,
    CapacityError,
    GrowthSchedule,
    PrimeTable,
    big_log2,
    check_chebyshev,
    first_odd_primes,
    is_prime,
    legendre_count,
    mertens_product,
    sieve_primes,
    squarefree_divisors_signed,
)
from sumsetlab import arith
from sumsetlab.arith import SIEVE_LIMIT_BITS, check_sieve_limit

# Per-candidate Miller-Rabin verdicts, the oracle for the sieve properties.
MR_PRIME = [is_prime(n) for n in range(5001)]

PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the smallest strong pseudoprime to the first k prime bases, for
# k = 1..11, with the largest k each is known to fool (psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11).
STRONG_PSEUDOPRIMES = {
    2047: 1,
    1_373_653: 2,
    25_326_001: 3,
    3_215_031_751: 4,
    2_152_302_898_747: 5,
    3_474_749_660_383: 6,
    341_550_071_728_321: 8,
    3_825_123_056_546_413_051: 11,
}

# psi_1..psi_13 (OEIS A014233): the first k prime bases decide every n < psi_k
PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981,
)


def _strong_probable_prime(n, bases):
    """Textbook strong probable-prime test of odd n > 2 to every base."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all(pow(x, 2**i, n) != n - 1 for i in range(1, r)):
            return False
    return True


def _independent_odd_sieve_count(limit):
    """Second sieve implementation (odd wheel), structurally unlike the library's."""
    if limit < 2:
        return 0
    size = (limit - 1) // 2  # flags for 3, 5, 7, ...
    flags = np.ones(size, dtype=bool)
    i = 0
    while True:
        p = 2 * i + 3
        if p * p > limit:
            break
        if flags[i]:
            start = (p * p - 3) // 2
            flags[start::p] = False
        i += 1
    return 1 + int(np.count_nonzero(flags))


def _primes(table):
    """The primes a table's odd flags stand for, 2 included."""
    return [2, *(2 * np.flatnonzero(table.odd_flags) + 1).tolist()]


class TestSievePrimes:
    def test_first_primes(self):
        table = sieve_primes(10)
        assert _primes(table) == [2, 3, 5, 7]

    def test_limit_two_has_no_odd_primes(self):
        table = sieve_primes(2)
        assert _primes(table) == [2]
        assert table.odd_count == 0
        assert table.largest_prime == 2

    def test_limit_below_two_rejected(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_count_at_1e6_matches_independent_sieve(self):
        table = sieve_primes(10**6)
        independent = _independent_odd_sieve_count(10**6)
        assert table.odd_count + 1 == independent == 78498

    def test_sampled_entries_pass_miller_rabin(self):
        table = sieve_primes(10**5)
        rng = random.Random(7)
        for p in rng.sample(_primes(table), 500):
            assert is_prime(p)
        odd_composites = 2 * np.flatnonzero(~table.odd_flags[1:]) + 3
        for c in rng.sample(odd_composites.tolist(), 500):
            assert not is_prime(c)

    @given(st.integers(min_value=2, max_value=5000), st.integers(min_value=1, max_value=64))
    @example(2, 1)
    @example(3, 1)
    @example(4, 1)
    @example(9, 2)
    @example(2 * 64 * 39 - 1, 64)  # ends exactly on a segment boundary
    def test_matches_per_candidate_primality(self, limit, segment):
        # a tiny segment makes the limit cross many segments and usually end
        # on a short one; the first segment must still hold the base primes
        segment = max(segment, math.isqrt(limit) // 2 + 1)
        with mock.patch.object(arith, "SEGMENT", segment):
            table = sieve_primes(limit)
        expected = [n for n in range(limit + 1) if MR_PRIME[n]]
        assert _primes(table) == expected
        assert table.odd_flags.tolist() == MR_PRIME[1 : limit + 1 : 2]
        assert table.odd_count == len(expected) - 1
        assert table.largest_prime == expected[-1]
        assert table.odd_flags.size == (limit + 1) // 2

    def test_largest_prime_scans_past_empty_windows(self):
        assert sieve_primes(2**21).largest_prime == 2097143
        # no gap this long exists below the cap, so build the flags by hand
        flags = np.zeros(10**5, dtype=bool)
        flags[[1, 2]] = True
        table = PrimeTable(limit=2 * 10**5 - 1, odd_flags=flags)
        assert table.largest_prime == 5
        assert _primes(table) == [2, 3, 5]
        assert PrimeTable(limit=2, odd_flags=np.zeros(1, dtype=bool)).largest_prime == 2

    def test_first_segment_holds_every_base_prime_below_the_cap(self):
        assert 2 * arith.SEGMENT > math.isqrt(2**SIEVE_LIMIT_BITS - 1)

    def test_limit_cap_fires_before_allocating(self):
        check_sieve_limit(2**SIEVE_LIMIT_BITS - 1)
        with pytest.raises(CapacityError):
            check_sieve_limit(2**SIEVE_LIMIT_BITS)
        with pytest.raises(CapacityError):
            sieve_primes(2**SIEVE_LIMIT_BITS)


class TestFirstOddPrimes:
    def test_capacity_guarantee(self):
        for count in (1, 5, 100, 10_000):
            assert len(first_odd_primes(count)) == count

    def test_every_count_to_2000_matches_sympy(self, odd_primes_ref):
        for count in range(1, 2001):
            assert first_odd_primes(count) == odd_primes_ref[:count]

    @pytest.mark.parametrize("count", [10**4, 10**5])
    def test_large_counts_match_sympy(self, odd_primes_ref, count):
        primes = first_odd_primes(count)
        assert type(primes) is tuple and type(primes[-1]) is int
        assert primes == odd_primes_ref[:count]

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            first_odd_primes(count)

    def test_bound_past_the_cap_raises_before_allocating(self):
        # 10^9 odd primes need a sieve to about 2.3e10, past 2^34
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="beyond the supported range"):
                first_odd_primes(10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestOddPrimorial:
    """Block t's modulus d_t is the product of the first t odd primes."""

    @pytest.mark.parametrize("t,expected", [(1, 3), (3, 105), (4, 1155)])
    def test_small_values(self, t, expected):
        assert math.prod(first_odd_primes(t)) == expected
        blocks = BlockSet.materialize(GrowthSchedule.polynomial(), t)
        assert blocks.level(t).modulus == expected

    def test_chain_invariant(self, odd_primes_ref):
        blocks = BlockSet.materialize(GrowthSchedule.polynomial(), 60)
        moduli = [blocks.level(t).modulus for t in range(1, 61)]
        for t in range(1, 60):
            assert moduli[t - 1] * odd_primes_ref[t] == moduli[t]

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            BlockSet.materialize(GrowthSchedule.polynomial(), 10**9)

    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            BlockSet.materialize(GrowthSchedule.polynomial(), 0)


class TestChebyshev:
    def test_j2(self):
        check = check_chebyshev(first_odd_primes(2))
        assert check.theta == pytest.approx(math.log(3) + math.log(5), rel=1e-14)
        assert check.bound == pytest.approx(4 * math.log(2), rel=1e-14)
        assert check.holds

    def test_j1_threshold(self):
        check = check_chebyshev((3,))
        assert check.bound == 0.0
        assert not check.holds

    def test_j1000_direct_evaluation(self, odd_primes_ref):
        check = check_chebyshev(first_odd_primes(1000))
        direct = math.fsum(math.log(p) for p in odd_primes_ref[:1000])
        assert check.theta == pytest.approx(direct, rel=1e-12)
        assert check.holds

    def test_theta_prefix_tracks_logs(self, odd_primes_ref):
        # theta is the running prefix sum of the logs, added in order one at
        # a time: not fsum, whose correctly rounded total differs in the last bits
        prefix = list(accumulate(math.log(p) for p in odd_primes_ref))
        assert all(b > a for a, b in zip(prefix, prefix[1:]))
        for j in (1, 2, 1000, 24_869, 10**5):
            theta = check_chebyshev(odd_primes_ref[:j]).theta
            assert theta == prefix[j - 1]
            direct = math.fsum(math.log(p) for p in odd_primes_ref[:j])
            assert theta == pytest.approx(direct, rel=1e-12)

    def test_no_primes_rejected(self):
        with pytest.raises(ValueError):
            check_chebyshev(())


class TestMertensProduct:
    @pytest.mark.parametrize(
        "j,expected",
        [(1, Fraction(2, 3)), (2, Fraction(8, 15)), (3, Fraction(16, 35))],
    )
    def test_small_products(self, j, expected):
        assert mertens_product(first_odd_primes(j)) == expected

    def test_include_two(self):
        assert mertens_product((3,), include_two=True) == Fraction(1, 3)

    def test_strictly_decreasing(self):
        primes = first_odd_primes(100)
        values = [mertens_product(primes[:j]) for j in range(1, 100)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_independent_fold(self, odd_primes_ref):
        # independent route: one factor at a time, reduced after each
        fold = Fraction(1)
        for j, p in enumerate(odd_primes_ref[:1500], 1):
            fold *= Fraction(p - 1, p)
            if j <= 50 or j == 1500:
                assert mertens_product(odd_primes_ref[:j]) == fold

    def test_no_primes_rejected(self):
        with pytest.raises(ValueError):
            mertens_product(())


class TestSquarefreeDivisors:
    def test_empty(self):
        assert squarefree_divisors_signed(()) == [(1, 1)]

    def test_single(self):
        assert sorted(squarefree_divisors_signed({3})) == [(1, 1), (3, -1)]

    def test_pair(self):
        got = set(squarefree_divisors_signed({3, 5}))
        assert got == {(1, 1), (3, -1), (5, -1), (15, 1)}

    def test_subset_count_and_signs(self):
        primes = (3, 5, 7, 11, 13)
        divs = squarefree_divisors_signed(primes)
        assert len(divs) == 2 ** len(primes)
        assert len({d for d, _ in divs}) == len(divs)
        for d, sign in divs:
            factors = sum(1 for p in primes if d % p == 0)
            assert sign == (-1) ** factors

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            squarefree_divisors_signed([3, 3])


class TestLegendreCount:
    @pytest.mark.parametrize(
        "x,primes,expected", [(10, {3}, 7), (100, {3, 5}, 53), (0, {3, 5, 7}, 0)]
    )
    def test_examples(self, x, primes, expected):
        assert legendre_count(x, primes) == expected

    def test_matches_gcd_scan(self):
        base = (3, 5, 7, 11, 13)
        xs = np.arange(0, 2001, dtype=np.int64)
        for r in range(len(base) + 1):
            for subset in combinations(base, r):
                prod = math.prod(subset)
                coprime = np.gcd(xs, prod) == 1
                coprime[0] = False
                scan = np.cumsum(coprime)
                for x in range(0, 2001, 7):
                    assert legendre_count(x, subset) == int(scan[x])

    @given(
        st.sets(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31))),
        st.integers(min_value=0, max_value=5000),
    )
    def test_matches_gcd_scan_on_random_subsets(self, primes, x):
        modulus = math.prod(primes)
        assert legendre_count(x, primes) == sum(
            1 for c in range(1, x + 1) if math.gcd(c, modulus) == 1
        )

    def test_huge_x(self):
        # floor arithmetic stays exact at 1000-bit x
        x = 2**1000 + 12345
        got = legendre_count(x, {3, 5})
        expected = x - x // 3 - x // 5 + x // 15
        assert got == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            legendre_count(-1, {3})


class TestBigLog2:
    def test_exact_powers(self):
        assert big_log2(1024) == 10.0
        assert big_log2(2**512) == 512.0
        for k in [*range(1, 100_001, 997), 53, 64, 100_000]:
            assert big_log2(2**k) == float(k)

    def test_reference_values(self):
        # references computed with 60-digit mpmath
        assert big_log2(1000) == pytest.approx(9.965784284662087, abs=1e-12)
        assert big_log2(10**100) == pytest.approx(332.19280948873626, rel=1e-13)
        assert big_log2(3**500) == pytest.approx(792.4812503605781, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            big_log2(0)
        with pytest.raises(ValueError):
            big_log2(-5)


class TestIsPrime:
    def test_small_and_carmichael(self):
        primes = {2, 3, 5, 7, 97, 104729, 2**61 - 1}
        composites = {0, 1, 4, 561, 1105, 6601, 104730}
        assert all(is_prime(n) for n in primes)
        assert not any(is_prime(n) for n in composites)

    def test_beyond_deterministic_bound(self):
        with pytest.raises(ValueError):
            is_prime(10**25)

    def test_psi12_is_composite(self):
        # the first 12 prime bases call psi_12 prime; base 41 does not
        psi12 = 318_665_857_834_031_151_167_461
        assert psi12 == 399_165_290_221 * 798_330_580_441
        assert _strong_probable_prime(psi12, PRIME_BASES[:12])
        assert not is_prime(psi12)

    @pytest.mark.parametrize("n,count", STRONG_PSEUDOPRIMES.items())
    def test_strong_pseudoprimes(self, n, count):
        # each fools the first `count` prime bases and must still be rejected
        assert not sympy.isprime(n)
        assert _strong_probable_prime(n, PRIME_BASES[:count])
        assert not _strong_probable_prime(n, PRIME_BASES[: count + 1])
        assert not is_prime(n)

    @pytest.mark.parametrize("k", range(1, 14))
    def test_matches_sympy_around_each_psi(self, k):
        # psi_k fools the first k bases, so a boundary one off lets it through as prime
        psi = PSI[k - 1]
        assert _strong_probable_prime(psi, PRIME_BASES[:k])
        rng = random.Random(k)
        lower = max(p for p in (2, *PSI) if p < psi)  # psi_7 = psi_8, psi_9 = psi_11
        below = [rng.randrange(lower, psi) for _ in range(40)]
        below += [sympy.prevprime(rng.randrange(lower, psi)) for _ in range(5)]
        below += [sympy.prevprime(psi), psi - 2, psi - 1]
        for n in below:
            assert is_prime(n) == sympy.isprime(n), n
        if k == 13:
            for n in (psi, psi + 2):
                with pytest.raises(ValueError, match="deterministic Miller-Rabin bound"):
                    is_prime(n)
            return
        for n in (psi, psi + 1, psi + 2, sympy.nextprime(psi)):
            assert is_prime(n) == sympy.isprime(n), n

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=2**10, max_value=2**32),
        st.integers(min_value=2**10, max_value=2**32),
    )
    def test_matches_sympy_below_2_to_64(self, n, a, b):
        assert is_prime(n) == sympy.isprime(n)
        # primes and products of two primes, which no small factor gives away
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        assert is_prime(p)
        assert not is_prime(p * q)
