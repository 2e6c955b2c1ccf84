"""Block sets: unions of primorial progressions over doubling windows.

A growth schedule fixes window boundaries G(t) = 2^e(t); block t holds the
multiples of the t-th odd primorial d_t inside [G(t), G(t+1)). The union of
all blocks is the member set counted here. Counting uses pure floor
arithmetic, so it stays exact for x thousands of bits wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence

from .arith import big_log2, first_odd_primes
from .errors import (
    DEFAULT_BIT_BUDGET,
    CapacityError,
    ConfigError,
    InapplicableError,
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
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
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
        kind = obj["kind"]
        if kind == "custom":
            exponents = obj.get("exponents", [])
            if isinstance(exponents, list):
                try:
                    return cls.custom(exponents)
                except TypeError:  # int() of a list, an object or null
                    pass
            raise ConfigError(
                f"custom schedule exponents must be a list of integers, got {text_name(exponents)}"
            )
        return cls(kind)


def grow(schedule: GrowthSchedule, t: int) -> int:
    """Window boundary G(t) = 2^e(t) as an exact integer.

    Raises:
        CapacityError: e(t) reaches DEFAULT_BIT_BUDGET, or a custom
            schedule is exhausted.
    """
    e = schedule.exponent(t)
    if e >= DEFAULT_BIT_BUDGET:
        raise CapacityError(
            f"G({t}) needs {e + 1} bits, over the {DEFAULT_BIT_BUDGET}-bit budget"
        )
    return 1 << e


def block_index(x: int, schedule: GrowthSchedule) -> int:
    """Largest j >= 1 with G(j) <= x, or 0 when x < G(1).

    Compares exponents against floor(log2 x), so no boundary ever has to
    be materialized. For a custom schedule the result is capped at the
    last defined exponent; block operations raise CapacityError when the
    window containing x is undefined.
    """
    x = int(x)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    log2_floor = x.bit_length() - 1
    j = 0
    while True:
        try:
            e = schedule.exponent(j + 1)
        except CapacityError:
            break
        if e <= log2_floor:
            j += 1
        else:
            break
    return j


@dataclass(frozen=True)
class Block:
    """One window [lo, next block's lo) holding the multiples of ``modulus``."""

    t: int
    modulus: int
    lo: int

    @cached_property
    def first(self) -> int:
        """The window's first member: the least multiple of ``modulus`` at or above ``lo``."""
        return (self.lo + self.modulus - 1) // self.modulus * self.modulus


@dataclass(frozen=True, eq=False)
class BlockSet:
    """Blocks 1..max_t of a schedule and the max_t odd primes of their moduli, immutable."""

    schedule: GrowthSchedule
    blocks: tuple[Block, ...]
    max_t: int
    primes: tuple[int, ...]

    @classmethod
    def materialize(cls, schedule: GrowthSchedule, max_t: int) -> "BlockSet":
        """Build blocks 1..max_t from boundaries G(1)..G(max_t).

        The top window must have a defined end e(max_t + 1), but counting
        truncates it at x, so G(max_t + 1) itself is never built.
        """
        if max_t < 1:
            raise ValueError(f"max_t must be >= 1, got {max_t}")
        schedule.exponent(max_t + 1)
        primes = first_odd_primes(max_t)
        blocks = []
        modulus = 1
        for t, p in enumerate(primes, 1):
            modulus *= p
            blocks.append(Block(t=t, modulus=modulus, lo=grow(schedule, t)))
        return cls(schedule=schedule, blocks=tuple(blocks), max_t=max_t, primes=primes)

    @classmethod
    def covering(cls, schedule: GrowthSchedule, x: int) -> "BlockSet":
        """Materialize just deep enough that queries up to x are answerable."""
        return cls.materialize(schedule, max(block_index(x, schedule), 1))

    @cached_property
    def below(self) -> tuple[int, ...]:
        """L_t = count_b(G(t) - 1), the members below window t, for t = 1..max_t; built lazily.

        No boundary is divided by a modulus. With G(t) = q*d_t + r, r > 0 as d_t is odd, window
        t holds u - q multiples: u*d_t + r' = G(t)*2^k = G(t+1), so u = q*2^k + (r*2^k) // d_t.
        Then u = q'*p + s, p the next prime, gives G(t+1) = q'*d_(t+1) + (s*d_t + r') next.
        """
        counts = [0]
        q, r = divmod(self.blocks[0].lo, self.blocks[0].modulus)
        for blk, nxt, p in zip(self.blocks, self.blocks[1:], self.primes[1:]):
            k = nxt.lo.bit_length() - blk.lo.bit_length()
            carry, r = divmod(r << k, blk.modulus)
            u = (q << k) + carry
            counts.append(counts[-1] + u - q)
            q, s = divmod(u, p)
            r += s * blk.modulus
        return tuple(counts)

    def index(self, x: int) -> int:
        """block_index(x); CapacityError if x lies above the top block."""
        j = block_index(x, self.schedule)
        self._require_depth(j)
        return j

    def _require_depth(self, j: int) -> None:
        if j > self.max_t:
            raise CapacityError(
                f"block {j} not materialized (max_t={self.max_t}); "
                "extend the block set to cover this x"
            )


def b_member(n: int, blocks: BlockSet) -> bool:
    """Whether n lies in some block's window and is divisible by its modulus.

    Raises:
        CapacityError: n is beyond the materialized windows (membership is
            never silently reported false there).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    j = blocks.index(n)
    if j == 0:
        return False
    return n % blocks.blocks[j - 1].modulus == 0


def count_b(x: int, blocks: BlockSet) -> int:
    """Exact number of block-set members in [1, x].

    L_j from the block set's ``below`` table plus the multiples of d_j from
    the top window's first member up to x. Pure integer arithmetic at any
    bit length.
    """
    x = int(x)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    j = blocks.index(x)
    if j == 0:
        return 0
    top = blocks.blocks[j - 1]
    return blocks.below[j - 1] + (x - top.first) // top.modulus + 1


def count_b_lower_bound(x: int, blocks: BlockSet) -> Fraction:
    """Certified lower bound on count_b(x) from the top two blocks.

    (x - G(j))/d_j + (G(j) - G(j-1))/d_(j-1) - 2, exact rational. Each
    block contributes at least its window length over its modulus minus
    one boundary loss; lower blocks are dropped entirely.

    Raises:
        InapplicableError: block index of x is below 2.
    """
    x = int(x)
    j = blocks.index(x)
    if j < 2:
        raise InapplicableError(f"lower bound needs block index >= 2, got {j} at x={x}")
    top = blocks.blocks[j - 1]
    prev = blocks.blocks[j - 2]
    return (
        Fraction(x - top.lo, top.modulus)
        + Fraction(top.lo - prev.lo, prev.modulus)
        - 2
    )


@dataclass(frozen=True)
class BlockCountReport:
    """Exact member count at x with the density-criterion ratio.

    a_count is floor(log2 x), the number of powers 2^a <= x with a >= 1;
    conjecture_ratio is a_count * b_count / x, the quantity whose positive
    lower bound the density conjectures hypothesize.
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
            raise ValueError("b_count must be >= 0")
        if self.b_lower_bound is not None and self.b_count < self.b_lower_bound:
            raise ValueError(
                f"count {self.b_count} fell below its certified bound "
                f"{self.b_lower_bound} at x={self.x}"
            )


def conjecture_ratio(x: int, blocks: BlockSet) -> BlockCountReport:
    """Exact count report with ratio a_count * b_count / x at x >= 2."""
    x = int(x)
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
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
        ValueError: x below G(1) = 4.
    """
    if schedule.kind != "paper":
        raise InapplicableError("the block-index window applies to the paper schedule only")
    x = int(x)
    if x < 4:
        raise ValueError(f"x must be >= G(1) = 4, got {x}")
    ln_x = big_log2(x) * math.log(2.0)
    loglog = math.log(ln_x)
    lower = math.sqrt(loglog)
    upper = 2.0 * math.sqrt(loglog) / math.sqrt(math.log(2.0))
    j = block_index(x, schedule)
    return WindowCheck(j=j, lower=lower, upper=upper, holds=lower < j <= upper)
