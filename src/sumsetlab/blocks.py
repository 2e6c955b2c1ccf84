"""Block sets: unions of primorial progressions over doubling windows.

A growth schedule fixes window boundaries G(t) = 2^e(t); block t holds the
multiples of the t-th odd primorial d_t inside [G(t), G(t+1)). The union of
all blocks is the member set counted here. Counting uses pure floor
arithmetic, so it stays exact for x thousands of bits wide.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .arith import big_log2, primorial_primes
from .errors import (
    DEFAULT_BIT_BUDGET,
    CapacityError,
    ClaimError,
    ConfigError,
    InapplicableError,
    at_least,
    int_name,
    json_int,
    text_name,
)

__all__ = [
    "GrowthSchedule",
    "Block",
    "BlockSet",
    "BlockCountReport",
    "WindowCheck",
    "grow",
    "block_index",
    "j_window_check",
    "b_member",
    "count_b",
    "count_b_lower_bound",
    "conjecture_ratio",
]

_KINDS = ("paper", "polynomial", "custom")


@dataclass(frozen=True)
class GrowthSchedule:
    """Window exponent schedule e(t); boundaries are G(t) = 2^e(t).

    Kinds:
        paper:      e(t) = 2^(t*t)  (doubly exponential; the normative default)
        polynomial: e(t) = t*t      (desk-scale default, keeps enumeration feasible)
        custom:     explicit strictly increasing exponent list, e(1) >= 1
    """

    kind: str
    exponents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown schedule kind {text_name(self.kind)}")
        if self.kind == "custom":
            exps = tuple(json_int(e, "schedule exponent", ConfigError) for e in self.exponents)
            if not exps:
                raise ConfigError("custom schedule needs at least one exponent")
            if exps[0] < 1:
                raise ConfigError("custom schedule needs e(1) >= 1")
            if any(b <= a for a, b in zip(exps, exps[1:])):
                raise ConfigError("custom schedule exponents must be strictly increasing")
            object.__setattr__(self, "exponents", exps)
        elif self.exponents:
            raise ConfigError(f"{self.kind} schedule takes no explicit exponents")

    @classmethod
    def paper(cls) -> "GrowthSchedule":
        return cls("paper")

    @classmethod
    def polynomial(cls) -> "GrowthSchedule":
        return cls("polynomial")

    @classmethod
    def custom(cls, exponents: Sequence[int]) -> "GrowthSchedule":
        return cls("custom", tuple(exponents))

    def exponent(self, t: int) -> int:
        """e(t) for t >= 1; custom schedules raise CapacityError when exhausted."""
        at_least("t", t, 1)
        if self.kind == "paper":
            return 2 ** (t * t)
        if self.kind == "polynomial":
            return t * t
        if t > len(self.exponents):
            raise CapacityError(
                f"custom schedule defines {len(self.exponents)} exponents, t={t} requested"
            )
        return self.exponents[t - 1]

    def to_json(self) -> dict:
        if self.kind == "custom":
            return {"kind": "custom", "exponents": list(self.exponents)}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, obj: dict) -> "GrowthSchedule":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError(f"schedule spec must be an object with a 'kind': {text_name(obj)}")
        exponents = obj.get("exponents", [])
        if not isinstance(exponents, list):
            raise ConfigError(f"schedule exponents must be a list, got {text_name(exponents)}")
        return cls(obj["kind"], tuple(exponents))


def grow(schedule: GrowthSchedule, t: int) -> int:
    """Window boundary G(t) = 2^e(t) as an exact integer.

    Raises:
        CapacityError: e(t) reaches DEFAULT_BIT_BUDGET, or a custom schedule is
            exhausted; a paper e(t) = 2^(t*t) past 64 bits is judged by t, never built.
    """
    if schedule.kind == "paper" and at_least("t", t, 1) * t > 64:
        raise CapacityError(f"G({t}) needs 2^{t * t} + 1 bits, "
                            f"over the {DEFAULT_BIT_BUDGET}-bit budget")
    e = schedule.exponent(t)
    if e >= DEFAULT_BIT_BUDGET:
        raise CapacityError(
            f"G({t}) needs {e + 1} bits, over the {DEFAULT_BIT_BUDGET}-bit budget"
        )
    return 1 << e


def block_index(x: int, schedule: GrowthSchedule) -> int:
    """Largest j >= 1 with G(j) <= x, or 0 when x < G(1).

    Solves e(j) <= L = floor(log2 x) in closed form, so no boundary ever has
    to be materialized. For a custom schedule the result is capped at the
    last defined exponent; block operations raise CapacityError when the
    window containing x is undefined.
    """
    log2_floor = at_least("x", int(x), 0).bit_length() - 1
    if log2_floor < 1:
        return 0
    if schedule.kind == "paper":  # 2^(j*j) <= L  <=>  j*j <= floor(log2 L)
        return math.isqrt(log2_floor.bit_length() - 1)
    if schedule.kind == "polynomial":
        return math.isqrt(log2_floor)
    return bisect_right(schedule.exponents, log2_floor)


@dataclass(frozen=True)
class Block:
    """Window t, [lo, the next window's lo), holding the multiples of ``modulus`` from ``first``
    on; ``below`` is L_t = count_b(lo - 1), and a carry resumes from ``quotient``, lo // modulus."""

    t: int
    modulus: int
    lo: int
    first: int
    below: int
    quotient: int = field(repr=False)


@dataclass(frozen=True, eq=False)
class BlockSet:
    """Blocks 1..max_t of a schedule and the max_t odd primes of their moduli.

    It keeps only its schedule, depth and primes, and the blocks ``level`` built when read.
    """

    schedule: GrowthSchedule
    max_t: int
    primes: tuple[int, ...]
    _levels: dict[int, Block] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def materialize(cls, schedule: GrowthSchedule, max_t: int) -> "BlockSet":
        """The block set of depth max_t, its budgets checked; no block is built until read.

        The top window must have a defined end e(max_t + 1), but counting
        truncates it at x, so G(max_t + 1) itself is never built.

        Raises:
            CapacityError: a custom schedule ends below e(max_t + 1), G(max_t) or a
                modulus d_t would pass DEFAULT_BIT_BUDGET bits; each decided before
                any boundary or modulus is built (see ``grow``, ``primorial_primes``).
        """
        at_least("max_t", max_t, 1)
        if schedule.kind == "custom":  # paper and polynomial windows all have an end
            schedule.exponent(max_t + 1)
        grow(schedule, max_t)  # the highest boundary
        return cls(schedule=schedule, max_t=max_t, primes=primorial_primes(max_t))

    @classmethod
    def covering(cls, schedule: GrowthSchedule, x: int) -> "BlockSet":
        """Materialize just deep enough that queries up to x are answerable."""
        return cls.materialize(schedule, max(block_index(x, schedule), 1))

    def level(self, t: int) -> Block:
        """Block t, built on its first read and kept; ConfigError for t below 1, CapacityError
        past max_t. One carried pass from the highest level kept below t, or from window 1,
        yields d_t, G(t) = q*d_t + r (r > 0 as d_t is odd), the first member (q + 1)*d_t and
        L_t, dividing no boundary by a modulus: window s holds u - q multiples, as G(s)*2^k =
        G(s + 1) = u*d_s + r' gives u = q*2^k + (r*2^k) // d_s; then u = q'*p + c, p the next
        prime, gives G(s + 1) = q'*d_(s+1) + (c*d_s + r'). Only the levels read are kept."""
        if t not in self._levels:
            self._require_depth(at_least("t", t, 1))
            start = max((s for s in self._levels if s < t), default=0)
            if start:
                blk = self._levels[start]
                d, q, below = blk.modulus, blk.quotient, blk.below
                r = blk.lo + d - blk.first  # first = (q + 1)*d
            else:
                start, d, below = 1, self.primes[0], 0
                q, r = divmod(grow(self.schedule, 1), d)
            for s in range(start, t):
                k = self.schedule.exponent(s + 1) - self.schedule.exponent(s)
                carry, r = divmod(r << k, d)
                u = (q << k) + carry
                below += u - q
                q, c = divmod(u, self.primes[s])
                r += c * d
                d *= self.primes[s]
            self._levels[t] = Block(t, d, grow(self.schedule, t), (q + 1) * d, below, q)
        return self._levels[t]

    def index(self, x: int) -> int:
        """block_index(x); CapacityError if x lies above the top block."""
        j = block_index(x, self.schedule)
        self._require_depth(j)
        return j

    def _require_depth(self, j: int) -> None:
        if j > self.max_t:
            raise CapacityError(
                f"block {text_name(j)} not materialized (max_t={self.max_t}); "
                "extend the block set to cover this x"
            )


def b_member(n: int, blocks: BlockSet) -> bool:
    """Whether n lies in some block's window and is divisible by its modulus.

    Raises:
        CapacityError: n is beyond the materialized windows (membership is
            never silently reported false there).
    """
    n = at_least("n", int(n), 1)
    j = blocks.index(n)
    if j == 0:
        return False
    return n % blocks.level(j).modulus == 0


def count_b(x: int, blocks: BlockSet) -> int:
    """Exact number of block-set members in [1, x].

    L_j, the members below the top window, plus the multiples of d_j from
    the window's first member up to x. Pure integer arithmetic at any bit
    length.
    """
    x = at_least("x", int(x), 0)
    j = blocks.index(x)
    if j == 0:
        return 0
    top = blocks.level(j)
    return top.below + (x - top.first) // top.modulus + 1


def count_b_lower_bound(x: int, blocks: BlockSet) -> Fraction:
    """Certified lower bound on count_b(x) from the top two blocks.

    (x - G(j))/d_j + (G(j) - G(j-1))/d_(j-1) - 2, exact rational. Each
    block contributes at least its window length over its modulus minus
    one boundary loss; lower blocks are dropped entirely. Only block j is
    built: d_(j-1) = d_j / p_j, and G(j-1) comes from the schedule.

    Raises:
        InapplicableError: block index of x is below 2.
    """
    x = int(x)
    j = blocks.index(x)
    if j < 2:
        raise InapplicableError(
            f"lower bound needs block index >= 2, got {j} at {int_name('x', x)}"
        )
    top = blocks.level(j)
    return (Fraction(x - top.lo, top.modulus)
            + Fraction(top.lo - grow(blocks.schedule, j - 1), top.modulus // blocks.primes[j - 1])
            - 2)


@dataclass(frozen=True)
class BlockCountReport:
    """Exact member count at x with the density-criterion ratio.

    a_count is floor(log2 x), the number of powers 2^a <= x with a >= 1;
    conjecture_ratio is a_count * b_count / x, the quantity whose positive
    lower bound the density conjectures hypothesize. A count below zero or
    below its certified bound raises ClaimError, so no such report exists.
    """

    x: int
    j: int
    b_count: int
    a_count: int
    b_lower_bound: Fraction | None
    ratio_exact: Fraction
    conjecture_ratio: float

    def __post_init__(self) -> None:
        if self.b_count < 0:
            raise ClaimError(f"b_count must be >= 0: {int_name('b_count', self.b_count)} "
                             f"at {int_name('x', self.x)}")
        if self.b_lower_bound is not None and self.b_count < self.b_lower_bound:
            raise ClaimError(
                f"b_count fell below its certified lower bound: "
                f"{int_name('b_count', self.b_count)} < "
                f"{int_name('ceil(bound)', math.ceil(self.b_lower_bound))} "
                f"at {int_name('x', self.x)}"
            )


def conjecture_ratio(x: int, blocks: BlockSet) -> BlockCountReport:
    """Exact count report with ratio a_count * b_count / x at x >= 2."""
    x = at_least("x", int(x), 2)
    j = block_index(x, blocks.schedule)
    b = count_b(x, blocks)
    a = x.bit_length() - 1
    bound = count_b_lower_bound(x, blocks) if j >= 2 else None
    ratio = Fraction(a * b, x)
    return BlockCountReport(
        x=x,
        j=j,
        b_count=b,
        a_count=a,
        b_lower_bound=bound,
        ratio_exact=ratio,
        conjecture_ratio=float(ratio),
    )


class WindowCheck(NamedTuple):
    j: int
    lower: float
    upper: float
    holds: bool


def j_window_check(x: int, schedule: GrowthSchedule) -> WindowCheck:
    """Check sqrt(loglog x) < j <= 2*sqrt(loglog x)/sqrt(log 2) (paper schedule).

    The window is the analytic consequence of G(j) <= x < G(j+1) under the
    doubly exponential schedule; logs are natural and evaluated through
    big_log2 so x may be thousands of bits wide.

    Raises:
        InapplicableError: schedule is not the paper kind.
        ConfigError: x below G(1) = 4.
    """
    if schedule.kind != "paper":
        raise InapplicableError("the block-index window applies to the paper schedule only")
    x = at_least("x", int(x), 4, "G(1) = 4")
    ln_x = big_log2(x) * math.log(2.0)
    loglog = math.log(ln_x)
    lower = math.sqrt(loglog)
    upper = 2.0 * math.sqrt(loglog) / math.sqrt(math.log(2.0))
    j = block_index(x, schedule)
    return WindowCheck(j=j, lower=lower, upper=upper, holds=lower < j <= upper)
