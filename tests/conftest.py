import numpy as np
import pytest
import sympy

from sumsetlab import BlockSet, GrowthSchedule, block_index


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


def _mark_sums_split(x, blocks):
    """Bitmap oracle: top-block and lower-block sums marked in two arrays.

    Returns (j, top, rest), boolean arrays over [0, x]: ``top`` marks every
    2^a + b <= x with b in block j = block_index(x), ``rest`` those with b in
    a lower block, each progression written as one strided slice. The
    library keeps a single array and counts the top block's sums in closed
    form, so this direct two-array split is the reference its s1, s2 and
    overlap are compared against.
    """
    j = block_index(x, blocks.schedule)
    top = np.zeros(x + 1, dtype=bool)
    rest = np.zeros(x + 1, dtype=bool)
    power = 2
    while power < x:
        for blk in blocks.blocks[:j]:
            if blk.lo > x - power:
                break
            target = top if blk.t == j else rest
            d = blk.modulus
            b_first = ((blk.lo + d - 1) // d) * d
            end = x if blk.t == j else blocks.blocks[blk.t].lo - 1
            b_last = min(end, x - power)
            if b_first > b_last:
                continue
            target[power + b_first : power + b_last + 1 : d] = True
        power <<= 1
    return j, top, rest


@pytest.fixture(scope="session")
def split_oracle():
    return _mark_sums_split
