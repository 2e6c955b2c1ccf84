"""Exact integer and rational arithmetic primitives.

Provides the prime table that backs all sieve work, the first odd
primes as a tuple for block moduli and the bound chain, Legendre-style
coprime counting, Chebyshev and Mertens evaluations, and base-2
logarithms of arbitrary-precision integers. One small bytearray sieve
serves both the block primes and the base primes of the segmented table
sieve.

Everything here is a pure function of immutable inputs. A PrimeTable's
flags are never mutated after construction, so a table may be shared
freely between threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import DEFAULT_BIT_BUDGET, CapacityError, ConfigError, at_least, int_name, text_name

# numpy is imported where an array is allocated or read, so a process
# that never sieves (a sparse scan, a covering check) never loads it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PrimeTable",
    "ChebyshevCheck",
    "sieve_primes",
    "first_odd_primes",
    "is_prime",
    "check_chebyshev",
    "mertens_product",
    "legendre_count",
    "big_log2",
]

# The first 13 prime bases and psi_1..psi_13, the smallest strong
# pseudoprime to the first k of them (OEIS A014233; psi_12 and psi_13 from
# Sorenson and Webster, 2017). The first k bases decide every n < psi_k,
# so is_prime tries only as many as n needs, and none decide n >= psi_13.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,  # psi_7 = psi_8
    341_550_071_728_321,
    3_825_123_056_546_413_051,  # psi_9 = psi_10 = psi_11
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
MR_BOUND = _MR_PSI[-1]  # is_prime decides every n below it

# Every sieve and every scan that sieves stays below 2^SIEVE_LIMIT_BITS.
SIEVE_LIMIT_BITS = 34

# Odd slots per sieve segment: 1 MiB of flags, the fastest size measured
# from 2^16 to 2^21 on a 4 MiB L2.
SEGMENT = 1 << 20


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """The primes up to ``limit``, held as one flag per odd number.

    sieve_primes fills the flags segment by segment, but they live in one
    array, so readers see a single table.

    Attributes:
        limit: Inclusive sieve bound (>= 2).
        odd_flags: Boolean array of length (limit + 1) // 2;
            odd_flags[i] is True iff 2*i + 1 is prime. The even prime 2
            is implied.

    odd_count (kept after its first read) and largest_prime are read from
    the flags.
    """

    limit: int
    odd_flags: np.ndarray

    @cached_property
    def odd_count(self) -> int:
        import numpy as np

        return int(np.count_nonzero(self.odd_flags))

    @property
    def largest_prime(self) -> int:
        """The largest prime <= limit, found by scanning the flags from the top."""
        import numpy as np

        end = self.odd_flags.size
        while end > 0:
            # 4096 odd slots span more than any prime gap below the cap
            start = max(end - 4096, 0)
            hits = np.flatnonzero(self.odd_flags[start:end])
            if hits.size:
                return 2 * (start + int(hits[-1])) + 1
            end = start
        return 2


def check_sieve_limit(limit: int, what: str = "sieve limit") -> None:
    """Refuse a sieve or scan limit (``what`` names it) at or past 2^SIEVE_LIMIT_BITS.

    Raises:
        CapacityError: limit >= 2^SIEVE_LIMIT_BITS.
    """
    limit = int(limit)
    if limit.bit_length() > SIEVE_LIMIT_BITS:
        raise CapacityError(
            f"{int_name(what, limit)} is beyond the supported range (below 2^{SIEVE_LIMIT_BITS})"
        )


def _odd_primes(limit: int) -> Iterator[int]:
    """The odd primes up to ``limit`` >= 1, in order, from a numpy-free bytearray sieve."""
    odd = bytearray([1]) * ((limit + 1) // 2)  # odd[i] stands for 2*i + 1
    odd[0] = 0
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(odd), p)))
    return compress(range(1, limit + 1, 2), odd)


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented odd-only sieve of Eratosthenes up to ``limit``.

    Keeps one byte per odd number, (limit + 1) // 2 bytes in all, and
    fills them in cache-sized segments of SEGMENT odd slots (Bays and
    Hudson, 1977). Each segment, the first included, clears the multiples
    of the base primes up to sqrt(limit), which come from the small sieve
    behind first_odd_primes, with one strided slice per prime.

    Args:
        limit: Inclusive upper bound, 2 <= limit < 2^SIEVE_LIMIT_BITS.

    Returns:
        A PrimeTable covering [2, limit].

    Raises:
        ConfigError: limit < 2 (the table would be empty).
        CapacityError: limit >= 2^SIEVE_LIMIT_BITS; raised before any
            allocation.
    """
    check_sieve_limit(at_least("sieve limit", limit, 2))
    import numpy as np

    size = (limit + 1) // 2
    odd = np.ones(size, dtype=bool)  # odd[i] stands for 2*i + 1
    odd[0] = False
    base = list(_odd_primes(math.isqrt(limit)))
    next_slot = [p * p // 2 for p in base]  # slot of p*p; odd multiples are p slots apart
    for lo in range(0, size, SEGMENT):
        hi = min(lo + SEGMENT, size)
        for n, p in enumerate(base):
            # no early exit: on a short last segment a small prime's next
            # multiple can lie past hi while a larger prime's does not
            j = next_slot[n]
            if j < hi:
                odd[j:hi:p] = False
                next_slot[n] = j + (hi - j + p - 1) // p * p
    return PrimeTable(limit=limit, odd_flags=odd)


def first_odd_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` odd primes, 3, 5, 7, ..., from the small bytearray sieve.

    The sieve runs to the Rosser-Schoenfeld bound p_n < n (ln n + ln ln n)
    on the n-th prime, n = count + 1, and imports no numpy: block moduli
    and the bound chain read only a few.

    Raises:
        ConfigError: count < 1.
        CapacityError: the bound reaches 2^SIEVE_LIMIT_BITS; raised before
            any allocation.
    """
    at_least("count", count, 1)
    check_sieve_limit(count, "prime count")  # p_n > n, and n past 2^1024 overflows a float
    n = count + 1  # prime index including 2
    limit = 15 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 10
    check_sieve_limit(limit)
    return tuple(islice(_odd_primes(limit), count))


def primorial_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` odd primes, or CapacityError if the product d_t of the first t passes
    the bit budget for a t <= count: decided from log2 p, sieving no more primes than d_t > 3^t
    allows."""
    primes = first_odd_primes(min(count, math.ceil(DEFAULT_BIT_BUDGET / math.log2(3))))
    for t, log2_d in enumerate(accumulate(map(math.log2, primes)), 1):
        if log2_d >= DEFAULT_BIT_BUDGET:
            raise CapacityError(f"d_{t} needs {math.floor(log2_d) + 1} bits, "
                                f"over the {DEFAULT_BIT_BUDGET}-bit budget")
    return primes


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3e24.

    Tries the first k prime bases for the smallest k with n < psi_k: four
    below 3215031751, all 13 only from 3.2e23 up.

    Raises:
        ConfigError: n is beyond the deterministic witness bound, MR_BOUND.
    """
    if n >= MR_BOUND:
        raise ConfigError(f"{int_name('n', n)} exceeds the deterministic Miller-Rabin bound")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ChebyshevCheck(NamedTuple):
    theta: float
    bound: float
    holds: bool


def check_chebyshev(primes: Sequence[int]) -> ChebyshevCheck:
    """Compare the log sum of the first j = len(primes) odd primes against 2*j*log(j).

    theta = sum of log p over the given primes; holds iff
    theta <= 2*j*log(j). At j = 1 the bound is 0, so holds is False:
    the estimate only kicks in from j = 2.
    """
    j = at_least("j", len(primes), 1)
    # one prime at a time, in order: the same rounding as a running prefix sum
    theta = 0.0
    for p in primes:
        theta += math.log(p)
    bound = 2.0 * j * math.log(j)
    return ChebyshevCheck(theta=theta, bound=bound, holds=theta <= bound)


def _product(values: Sequence[int]) -> int:
    """Product by halves, so big factors meet big factors and Karatsuba pays off."""
    if len(values) <= 16:
        return math.prod(values)
    mid = len(values) // 2
    return _product(values[:mid]) * _product(values[mid:])


def mertens_product(primes: Sequence[int], include_two: bool = False) -> Fraction:
    """Exact rational product of (1 - 1/p) over the given odd primes.

    Args:
        primes: The first j odd primes, j = len(primes) >= 1.
        include_two: Multiply an extra (1 - 1/2) into the product. The
            sieve-facing callers always use the odd-only product; the flag
            exists for exploratory comparison.

    Returns:
        The product as a Fraction in lowest terms, reduced once from
        prod(p - 1) / prod(p).
    """
    at_least("j", len(primes), 1)
    product = Fraction(_product([p - 1 for p in primes]), _product(primes))
    return product / 2 if include_two else product


def legendre_count(x: int, modulus_primes: Iterable[int]) -> int:
    """Exact count of 1 <= c <= x coprime to the product of the given distinct primes.

    Evaluates sum over squarefree divisors l <= x of mu(l) * floor(x / l);
    a divisor past x adds 0. The (l, mu(l)) pairs grow one prime at a time
    and keep only l <= x, and every divisor of a kept l is smaller, so the
    list is exactly the squarefree divisors up to x, never all 2^j of them.
    Pure integer arithmetic, valid for x of any bit length.

    Raises:
        ConfigError: x < 0, or the primes are not distinct.
    """
    x = at_least("x", int(x), 0)
    primes = sorted(int(p) for p in modulus_primes)
    if len(primes) != len(set(primes)):
        raise ConfigError(f"modulus primes must be distinct, got {primes}")
    divisors = [(1, 1)]
    for p in primes:
        divisors += [(d * p, -sign) for d, sign in divisors if d * p <= x]
    return sum(sign * (x // d) for d, sign in divisors)


def big_log2(x: int) -> float:
    """log2 of a positive integer of any bit length.

    Uses the top 53 bits as an exact float mantissa plus the bit length,
    so powers of two come out exactly and the relative error stays below
    1e-12 for any practical input.

    Raises:
        ConfigError: x <= 0.
    """
    x = int(x)
    if x <= 0:
        raise ConfigError(f"log2 needs a positive integer, got {text_name(x)}")
    bits = x.bit_length()
    if bits <= 53:
        return math.log2(x)
    shift = bits - 53
    return math.log2(x >> shift) + shift
