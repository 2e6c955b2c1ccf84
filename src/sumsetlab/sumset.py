"""Exact deduplicated counting of sums 2^a + b with b in a block set.

Enumeration walks powers of two on the outside and block progressions on
the inside, marking each sum in a value-indexed boolean array so that
collisions count once. Every sum value at enumeration scale is classified
by whether it has a witness b inside the top block (s1) or only witnesses
in lower blocks (s2); the s1/s2 split is a true partition (s1 wins on
overlap) and the overlap is reported separately.

The analytic bounds need no enumeration: they are pure floor/rational
arithmetic, so they stay checkable at x far beyond any budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith import PrimeTable, legendre_count, mertens_product
from .blocks import BlockSet, block_index, count_b
from .errors import CapacityError, InapplicableError

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "SumsetReport",
    "RatioPoint",
    "enumerate_c",
    "split_s1_s2",
    "s1_bound",
    "s2_bound",
    "c_upper_report",
    "ratio_scan",
]

# Enumeration allocates one byte per candidate value.
DEFAULT_ENUM_BUDGET = 10**8


@dataclass(frozen=True)
class SumsetReport:
    """Exact sumset counts at x plus (optionally) the analytic bound chain.

    s1_count counts values with a witness in block j = block_index(x),
    s2_count the rest; s1_overlap counts values having witnesses of both
    kinds, which is why the two raw classes only bound the total from
    above. The bound fields are filled by c_upper_report; split_s1_s2
    leaves them None because they need a prime table.
    """

    x: int
    j: int
    c_count: int
    s1_count: int
    s2_count: int
    s1_overlap: int
    density: float
    sqrt_check: bool
    s1_bound: Fraction | None = None
    s2_bound: Fraction | None = None
    c_bound: Fraction | None = None
    s1_legendre: int | None = None

    def __post_init__(self) -> None:
        if self.s1_count + self.s2_count != self.c_count:
            raise ValueError("s1_count + s2_count must equal c_count")


@dataclass(frozen=True)
class RatioPoint:
    """One grid point of the sumset-to-blockset count ratio scan."""

    x: int
    b_count: int
    c_count: int
    ratio: Fraction | None  # None when the block set is empty below x


def _check_scale(x: int, budget: int | None) -> int:
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    cap = DEFAULT_ENUM_BUDGET if budget is None else int(budget)
    if x > cap:
        raise CapacityError(f"x={x} exceeds the enumeration budget {cap}")
    return x


def _mark_sums(x: int, blocks: BlockSet, split: bool) -> tuple[int, np.ndarray, np.ndarray]:
    """Mark every 2^a + b <= x (a >= 1, b a block member) in boolean arrays.

    Returns (j, top, rest): ``top`` marks values with a witness in block j,
    ``rest`` those with a witness in a lower block. With split=False both
    names alias one array.

    Each inner progression b = d*k spanning a window becomes a strided
    slice assignment, so the work is O(x / d) per (power, block) pair with
    no per-element division.
    """
    j = block_index(x, blocks.schedule)
    blocks._require_depth(j)
    top = np.zeros(x + 1, dtype=bool)
    rest = top if not split else np.zeros(x + 1, dtype=bool)
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


def enumerate_c(
    x: int, blocks: BlockSet, budget: int | None = None
) -> tuple[int, np.ndarray]:
    """Exact count of distinct sums 2^a + b <= x, plus the marked value set.

    Returns:
        (count, members) where members is a boolean array over [0, x] and
        count = number of True entries (collisions counted once).

    Raises:
        CapacityError: x exceeds the enumeration budget or the block set
            is too shallow.
    """
    x = _check_scale(x, budget)
    _, members, _ = _mark_sums(x, blocks, split=False)
    return int(np.count_nonzero(members)), members


def split_s1_s2(x: int, blocks: BlockSet, budget: int | None = None) -> SumsetReport:
    """Partition the sumset at x by top-block witness availability.

    A value lands in s1 when some witness pair (a, b) has b in block
    j(x), in s2 otherwise; s1_overlap counts values that also have a
    lower-block witness. Bound fields are left unset.
    """
    x = _check_scale(x, budget)
    j, top, rest = _mark_sums(x, blocks, split=True)
    s1 = int(np.count_nonzero(top))
    overlap = int(np.count_nonzero(top & rest))
    s2 = int(np.count_nonzero(rest)) - overlap
    c = s1 + s2
    return SumsetReport(
        x=x,
        j=j,
        c_count=c,
        s1_count=s1,
        s2_count=s2,
        s1_overlap=overlap,
        density=c / x,
        sqrt_check=(1 << (2 * j)) <= x,
    )


def s1_bound(
    x: int, blocks: BlockSet, table: PrimeTable, j: int | None = None
) -> Fraction:
    """Sieve upper bound for the top-block sums: x * prod(1 - 1/p) + 2^j.

    The product runs over the j odd primes dividing the top modulus; the
    2^j term absorbs the floor errors of the inclusion-exclusion sum (one
    per squarefree divisor). With j = 0 there is no sieve and the bound
    degenerates to x itself.
    """
    x = int(x)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if j is None:
        j = block_index(x, blocks.schedule)
    if j == 0:
        return Fraction(x)
    return x * mertens_product(j, table) + (1 << j)


def s2_bound(
    x: int, blocks: BlockSet, table: PrimeTable, j: int | None = None
) -> Fraction:
    """Upper bound for sums without a top-block witness.

    Level-(j-1) sieve term x * prod(1 - 1/p over j-1 odd primes) + 2^(j-1),
    plus G(j-1) * floor(log2 x) for the pairs whose b lies below G(j-1).

    Raises:
        InapplicableError: block index below 2.
    """
    x = int(x)
    if j is None:
        j = block_index(x, blocks.schedule)
    if j < 2:
        raise InapplicableError(f"s2 bound needs block index >= 2, got {j} at x={x}")
    blocks._require_depth(j - 1)
    a_count = x.bit_length() - 1
    small_b_pairs = blocks.blocks[j - 2].lo * a_count
    return x * mertens_product(j - 1, table) + (1 << (j - 1)) + small_b_pairs


def c_upper_report(
    x: int, blocks: BlockSet, table: PrimeTable, budget: int | None = None
) -> SumsetReport:
    """Full report: exact counts, partition, and the analytic bound chain.

    c_bound is s1_bound + s2_bound (the pre-absorption form, valid under
    every schedule); sqrt_check reports whether 2^j <= sqrt(x), the side
    condition that lets the 2^j error term be absorbed at paper scale.
    s1_legendre is the exact coprime count the s1 sieve bound dominates.
    """
    report = split_s1_s2(x, blocks, budget)
    if report.j < 2:
        raise InapplicableError(
            f"bound chain needs block index >= 2, got {report.j} at x={x}"
        )
    s1b = s1_bound(x, blocks, table, j=report.j)
    s2b = s2_bound(x, blocks, table, j=report.j)
    legendre = legendre_count(x, (table.odd_prime(i) for i in range(1, report.j + 1)))
    return dataclasses.replace(
        report,
        s1_bound=s1b,
        s2_bound=s2b,
        c_bound=s1b + s2b,
        s1_legendre=legendre,
    )


def ratio_scan(
    x_grid: Sequence[int], blocks: BlockSet, budget: int | None = None
) -> list[RatioPoint]:
    """Exact c_count / b_count along an ascending grid.

    Evidence gathering for the open question of whether the ratio is
    unbounded for sparse block sets; nothing is asserted about its limit.
    """
    grid = [int(x) for x in x_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid must be strictly ascending, got {grid}")
    points = []
    for x in grid:
        b = count_b(x, blocks)
        c, _ = enumerate_c(x, blocks, budget)
        points.append(
            RatioPoint(x=x, b_count=b, c_count=c, ratio=Fraction(c, b) if b else None)
        )
    return points
