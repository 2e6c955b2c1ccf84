import functools
import math

import numpy as np
import pytest
import sympy

from sumsetlab import BlockSet, GrowthSchedule


@pytest.fixture(scope="session")
def odd_primes_ref():
    """The first 10^5 odd primes, 3 through 1299721, from sympy rather than the library."""
    return tuple(sympy.sieve.primerange(3, 1_299_722))


@pytest.fixture(scope="session")
def poly_blocks():
    return BlockSet.materialize(GrowthSchedule.polynomial(), 6)


@pytest.fixture(scope="session")
def paper_blocks():
    return BlockSet.materialize(GrowthSchedule.paper(), 3)


def _mark_sums_split(x, schedule, primes):
    """Bitmap oracle: top-block and lower-block sums marked in two arrays.

    Returns (j, top, rest), boolean arrays over [0, x]: ``top`` marks every
    2^a + b <= x with b in the top window j, the last to start at or below x,
    ``rest`` those with b in a lower window, each progression written as one
    strided slice. Window t is [2^e(t), 2^e(t+1)) and its modulus the product
    of the first t of ``primes``; nothing is read from a block set. The library
    keeps a single array and counts the top block's sums in closed form, so
    this direct two-array split is the reference its s1, s2 and overlap are
    compared against.
    """
    starts = [2 ** schedule.exponent(1)]
    while starts[-1] <= x:
        starts.append(2 ** schedule.exponent(len(starts) + 1))
    j = len(starts) - 1
    top = np.zeros(x + 1, dtype=bool)
    rest = np.zeros(x + 1, dtype=bool)
    power = 2
    while power < x:
        for t in range(1, j + 1):
            d = math.prod(primes[:t])
            b_first = -(-starts[t - 1] // d) * d
            b_last = min(starts[t] - 1, x - power)  # the top window's end is past x
            if b_first <= b_last:
                target = top if t == j else rest
                target[power + b_first : power + b_last + 1 : d] = True
        power <<= 1
    return j, top, rest


@pytest.fixture(scope="session")
def split_oracle(odd_primes_ref):
    return functools.partial(_mark_sums_split, primes=odd_primes_ref)
