"""Exact deduplicated counting of sums 2^a + b with b in a block set.

Enumeration walks powers of two on the outside and block progressions on
the inside, marking each sum in one value-indexed boolean array so that
collisions count once: one byte per value up to x, 100 MB at x = 10^8.
Every sum value at enumeration scale is classified by whether it has a
witness b inside the top block (s1) or only witnesses in lower blocks
(s2); the s1/s2 split is a true partition (s1 wins on overlap) and the
overlap is reported separately. s1 needs no array: the top block's sums
for one power form a single residue class mod its modulus, so they are
counted in closed form, and the bitmap yields the other two classes.

The analytic bounds need no enumeration: they are pure floor/rational
arithmetic, so they stay checkable at x far beyond any budget. The
per-x reports live here too: ``bound_chain_point`` (the analytic chain
alone), ``c_upper_report`` (exact counts with the chain) and
``ratio_point`` (c_count / b_count); experiments run them over a grid.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .arith import check_chebyshev, legendre_count, mertens_product
from .blocks import BlockSet, block_index, conjecture_ratio, count_b, grow, j_window_check
from .errors import CapacityError, ClaimError, ConfigError, at_least, int_name

# numpy is imported where an array is allocated, so a process that
# counts nothing by bitmap never loads it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SumsetReport",
    "RatioPoint",
    "enumerate_c",
    "split_s1_s2",
    "s1_bound",
    "s2_bound",
    "bound_chain_point",
    "c_upper_report",
    "ratio_point",
]

# Enumeration and the s1/s2 split hold one bitmap of x + 1 bytes, no more.
DEFAULT_ENUM_BUDGET = 10**8
# Each pair (a, b) of SumsetReport fields claims a <= b; a pair with a bound left None is skipped.
_ORDERED = (("s1_overlap", "s1_count"), ("s1_count", "c_count"), ("s1_count", "s1_legendre"),
            ("s1_legendre", "s1_bound"), ("s2_count", "s2_bound"), ("c_count", "c_bound"))


@dataclass(frozen=True)
class SumsetReport:
    """Exact sumset counts at x plus (optionally) the analytic bound chain.

    s1_count counts values with a witness in block j = block_index(x),
    s2_count the rest; s1_overlap counts values having witnesses of both
    kinds, which is why the two raw classes only bound the total from
    above. The bound fields are filled by c_upper_report; split_s1_s2
    counts only, so it leaves them None. Counts that are no partition, or
    that break 0 <= s1_overlap <= s1_count <= c_count or a filled bound
    (s1_count <= s1_legendre <= s1_bound, s2_count <= s2_bound,
    c_count <= c_bound), raise ClaimError.
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
        at_x = f"at {int_name('x', self.x)}"
        if self.s1_count + self.s2_count != self.c_count:
            raise ClaimError(
                f"s1_count + s2_count must equal c_count: "
                f"{int_name('s1_count + s2_count', self.s1_count + self.s2_count)} != "
                f"{int_name('c_count', self.c_count)} {at_x}"
            )
        if self.s1_overlap < 0:
            raise ClaimError(
                f"s1_overlap must be >= 0: {int_name('s1_overlap', self.s1_overlap)} {at_x}"
            )
        for low, high in _ORDERED:
            a, b = getattr(self, low), getattr(self, high)
            if a is not None and b is not None and a > b:
                # a count is an int, so it exceeds a bound exactly when it exceeds its floor
                shown = high if isinstance(b, int) else f"floor({high})"
                raise ClaimError(f"{low} must be <= {high}: {int_name(low, a)} > "
                                 f"{int_name(shown, math.floor(b))} {at_x}")


@dataclass(frozen=True)
class RatioPoint:
    """The sumset-to-blockset count ratio at one x."""

    x: int
    b_count: int
    c_count: int
    ratio: Fraction | None  # None when the block set is empty below x


def _check_scale(x: int, budget: int) -> int:
    x = at_least("x", int(x), 1)
    if x > budget:
        raise CapacityError(f"{int_name('x', x)} exceeds the enumeration budget {budget}")
    if x >= sys.maxsize:
        raise CapacityError(f"{int_name('x', x)} needs a bitmap of more than {sys.maxsize} "
                            "bytes, past what an array can index")
    return x


def _mark_sums(members: np.ndarray, blocks: BlockSet, j: int, levels: range) -> None:
    """Mark every 2^a + b <= x (a >= 1, b a member of a block t in ``levels``) in ``members``.

    ``members`` is a boolean array over [0, x]; j = block_index(x) decides
    where each block's window ends (the top block j runs up to x). Each
    inner progression b = d*k spanning a window becomes a strided slice
    assignment, so the work is O(x / d) per (power, block) pair with no
    per-element division.
    """
    x = members.size - 1
    power = 2
    while power < x:
        for blk in map(blocks.level, levels):
            if blk.lo > x - power:
                break
            end = x if blk.t == j else blocks.level(blk.t + 1).lo - 1
            b_last = min(end, x - power)
            if blk.first > b_last:
                continue
            members[power + blk.first : power + b_last + 1 : blk.modulus] = True
        power <<= 1


def _count_top_sums(x: int, blocks: BlockSet, j: int) -> int:
    """Number of distinct sums 2^a + b <= x with b in the top block j.

    For one power 2^a the top-block sums are the values congruent to 2^a
    mod d_j from 2^a + first up to x (``first`` is the block's first
    member, a multiple of d_j). Equal residues give nested runs and
    different ones disjoint runs, so the smallest power of each residue
    counts its whole class. d_j is odd, so 2^a mod d_j has period
    ord_{d_j}(2): the first M = min(floor(log2(x - first)), ord_{d_j}(2))
    powers count. With x - first = q*d_j + s and r_a = 2^a mod d_j, kept
    by r <- 2r mod d_j, their classes hold M*(q + 1) - #{a <= M : r_a > s}
    - (2^(M+1) - 2 - sum r_a) / d_j sums: two big divisions, no array.
    """
    if j == 0:
        return 0
    blk = blocks.level(j)
    d, room = blk.modulus, x - blk.first
    q, s = divmod(room, d)
    powers = max(room, 1).bit_length() - 1  # floor(log2 room), 0 where not even 2 + first fits
    m = residue_sum = above = 0
    r = 2
    while m < powers:
        m += 1
        residue_sum += r
        above += r > s
        r <<= 1
        if r >= d:
            r -= d
        if r == 2:  # 2^(m+1) repeats 2^1: the period ends at m = ord_{d_j}(2)
            break
    return m * (q + 1) - above - ((1 << (m + 1)) - 2 - residue_sum) // d


def enumerate_c(
    x: int, blocks: BlockSet, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[int, np.ndarray]:
    """Exact count of distinct sums 2^a + b <= x, plus the marked value set.

    Returns:
        (count, members) where members is a boolean array over [0, x] and
        count = number of True entries (collisions counted once).

    Raises:
        CapacityError: x exceeds the enumeration budget or what an array
            can index, or the block set is too shallow.
    """
    x = _check_scale(x, budget)
    import numpy as np

    j = blocks.index(x)
    members = np.zeros(x + 1, dtype=bool)
    _mark_sums(members, blocks, j, range(1, j + 1))
    return int(np.count_nonzero(members)), members


def split_s1_s2(x: int, blocks: BlockSet, budget: int = DEFAULT_ENUM_BUDGET) -> SumsetReport:
    """Partition the sumset at x by top-block witness availability.

    A value lands in s1 when some witness pair (a, b) has b in block
    j(x), in s2 otherwise; s1_overlap counts values that also have a
    lower-block witness. s1 comes from the closed form of
    _count_top_sums; one bitmap, counted before and after the top block
    is marked into it, gives the lower-block and total counts, and
    inclusion-exclusion gives the rest. Bound fields are left unset.
    """
    x = _check_scale(x, budget)
    import numpy as np

    j = blocks.index(x)
    levels = range(1, j + 1)
    members = np.zeros(x + 1, dtype=bool)
    _mark_sums(members, blocks, j, levels[:-1])
    lower = int(np.count_nonzero(members))
    _mark_sums(members, blocks, j, levels[-1:])
    c = int(np.count_nonzero(members))
    s1 = _count_top_sums(x, blocks, j)
    return SumsetReport(
        x=x,
        j=j,
        c_count=c,
        s1_count=s1,
        s2_count=c - s1,
        s1_overlap=s1 + lower - c,
        density=c / x,
        sqrt_check=(1 << (2 * j)) <= x,
    )


def s1_bound(x: int, blocks: BlockSet) -> Fraction:
    """Sieve upper bound for the top-block sums: x * prod(1 - 1/p) + 2^j.

    The product runs over the j odd primes dividing the top modulus; the
    2^j term absorbs the floor errors of the inclusion-exclusion sum (one
    per squarefree divisor). With j = 0 there is no sieve and the bound
    degenerates to x itself. CapacityError if x lies above the top block.
    """
    x = at_least("x", int(x), 0)
    j = blocks.index(x)
    if j == 0:
        return Fraction(x)
    return x * mertens_product(blocks.primes[:j]) + (1 << j)


def s2_bound(x: int, blocks: BlockSet) -> Fraction:
    """Upper bound for sums without a top-block witness.

    Level-(j-1) sieve term x * prod(1 - 1/p over j-1 odd primes) + 2^(j-1),
    plus G(j-1) * floor(log2 x) for the pairs whose b lies below G(j-1).
    G(j-1) comes from the schedule, so no block is built.

    Raises:
        ConfigError: block index below 2.
        CapacityError: x lies above the top block.
    """
    x = int(x)
    j = blocks.index(x)
    if j < 2:
        raise ConfigError(f"s2 bound needs block index >= 2, got {j} at {int_name('x', x)}")
    small_b_pairs = grow(blocks.schedule, j - 1) * (x.bit_length() - 1)
    return x * mertens_product(blocks.primes[: j - 1]) + (1 << (j - 1)) + small_b_pairs


def _sieve_bounds(x: int, blocks: BlockSet, j: int) -> dict:
    """s1_bound, s2_bound and c_bound = s1_bound + s2_bound at x in window j, or None.

    s1 needs a sieve level (j >= 1) and s2 one below the top (block index
    >= 2). c_bound is the pre-absorption form, valid under every schedule.
    """
    s1b = s1_bound(x, blocks) if j >= 1 else None
    s2b = s2_bound(x, blocks) if j >= 2 else None
    return {"s1_bound": s1b, "s2_bound": s2b, "c_bound": None if s2b is None else s1b + s2b}


def bound_chain_point(x: int, blocks: BlockSet) -> dict:
    """All analytic checks at one x: window, Chebyshev, count bound, sieve bounds.

    Pure floor/rational arithmetic end to end, so paper-scale x is fine.
    The reports and Fractions are returned as they are; ``report_payload``
    encodes the point. ``b_lower_holds`` is None below block index 2 and
    never False: a count below its certified bound raises ClaimError first.
    """
    report = conjecture_ratio(x, blocks)
    j = report.j
    return {
        "x": x,
        "j": j,
        "count": report,
        "b_lower_holds": (
            None
            if report.b_lower_bound is None
            else bool(report.b_count >= report.b_lower_bound)
        ),
        "window": (
            j_window_check(x, blocks.schedule)
            if blocks.schedule.kind == "paper" and x >= 4
            else None
        ),
        "chebyshev": check_chebyshev(blocks.primes[:j]) if j >= 1 else None,
        **_sieve_bounds(x, blocks, j),
        "sqrt_check": (1 << (2 * j)) <= x,
    }


def c_upper_report(x: int, blocks: BlockSet, budget: int = DEFAULT_ENUM_BUDGET) -> SumsetReport:
    """Full report: exact counts, partition, and the analytic bound chain.

    sqrt_check reports whether 2^j <= sqrt(x), the side condition that
    lets the 2^j error term be absorbed at paper scale. s1_legendre is
    the exact coprime count the s1 sieve bound dominates.

    Raises:
        ConfigError: block index below 2, checked before the budget.
    """
    x = at_least("x", int(x), 1)
    j = block_index(x, blocks.schedule)
    if j < 2:
        raise ConfigError(f"bound chain needs block index >= 2, got {j} at {int_name('x', x)}")
    report = split_s1_s2(x, blocks, budget)
    legendre = legendre_count(x, blocks.primes[:j])
    return dataclasses.replace(report, **_sieve_bounds(x, blocks, j), s1_legendre=legendre)


def ratio_point(x: int, blocks: BlockSet, budget: int = DEFAULT_ENUM_BUDGET) -> RatioPoint:
    """Exact c_count / b_count at x.

    Evidence gathering for the open question of whether the ratio is
    unbounded for sparse block sets; nothing is asserted about its limit.
    """
    x = int(x)
    c, _ = enumerate_c(x, blocks, budget)  # over budget, fail before counting b
    b = count_b(x, blocks)
    return RatioPoint(x=x, b_count=b, c_count=c, ratio=Fraction(c, b) if b else None)
