"""Output oracles for the benchmark, written from the definitions alone.

Nothing here imports ``sumsetlab``: block sets, sumsets, bounds and scans
are recomputed from their mathematical definitions (with ``sympy`` for
primality and prime counting), so a defect in the library cannot hide in
code the oracle shares with it. Each ``check_*`` function takes a request
spec and the parsed CLI record and returns a list of mismatch messages;
an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import sympy

# Largest number of witness pairs the Python-set sumset oracle enumerates.
MARKS_CAP = 400_000
# Largest limit the independent Romanov density oracle recomputes.
ROMANOV_CAP = 10**7
# The classical Erdos progression certified by the shipped covering system.
ERDOS_CERTIFICATE = {"residue": 7_629_217, "modulus": 11_184_810}

FLOAT_RTOL = 1e-9


@lru_cache(maxsize=None)
def odd_primes(n: int) -> tuple[int, ...]:
    """The first n odd primes, by trial division."""
    found: list[int] = []
    candidate = 3
    while len(found) < n:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 2
    return tuple(found)


@lru_cache(maxsize=None)
def modulus(t: int) -> int:
    """d_t = 3 * 5 * ... * (t-th odd prime)."""
    return math.prod(odd_primes(t))


@lru_cache(maxsize=None)
def mertens(j: int) -> Fraction:
    """prod over the first j odd primes of (1 - 1/p)."""
    product = Fraction(1)
    for p in odd_primes(j):
        product *= Fraction(p - 1, p)
    return product


class Schedule:
    """Window exponents e(t), from a spec {"kind": ..., "exponents": [...]}."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.exponents = tuple(spec.get("exponents", ()))

    def exponent(self, t: int) -> int | None:
        if self.kind == "paper":
            return 1 << (t * t)
        if self.kind == "polynomial":
            return t * t
        return self.exponents[t - 1] if t <= len(self.exponents) else None

    def boundary(self, t: int) -> int:
        return 1 << self.exponent(t)

    def index(self, x: int) -> int:
        """Number of windows whose lower boundary G(t) = 2^e(t) is <= x."""
        log2x = x.bit_length() - 1
        t = 0
        while True:
            e = self.exponent(t + 1)
            if e is None or e > log2x:
                return t
            t += 1


def _multiples(lo: int, hi: int, d: int) -> int:
    """How many multiples of d lie in [lo, hi]."""
    first = -(-lo // d)
    last = hi // d
    return max(0, last - first + 1)


def count_b(x: int, schedule: Schedule) -> int:
    """|B ∩ [1, x]|: multiples of d_t in each window [G(t), G(t+1)) up to x."""
    if x < 1:
        return 0
    j = schedule.index(x)
    total = 0
    for t in range(1, j + 1):
        hi = x if t == j else schedule.boundary(t + 1) - 1
        total += _multiples(schedule.boundary(t), hi, modulus(t))
    return total


def marks(x: int, schedule: Schedule) -> int:
    """Witness pairs (a, b): a >= 1, b in B, 2^a + b <= x."""
    total, power = 0, 2
    while power < x:
        total += count_b(x - power, schedule)
        power <<= 1
    return total


def sumset_classes(x: int, schedule: Schedule) -> tuple[set, set]:
    """Sums 2^a + b <= x split by whether b lies in the top window j(x)."""
    j = schedule.index(x)
    top: set[int] = set()
    rest: set[int] = set()
    power = 2
    while power < x:
        for t in range(1, j + 1):
            d = modulus(t)
            hi = min(x - power, x if t == j else schedule.boundary(t + 1) - 1)
            first = -(-schedule.boundary(t) // d) * d
            if first <= hi:
                (top if t == j else rest).update(range(power + first, power + hi + 1, d))
        power <<= 1
    return top, rest


def coprime_count(x: int, primes) -> int:
    """#{1 <= c <= x : gcd(c, prod primes) = 1} by inclusion-exclusion."""
    total = 0
    for r in range(len(primes) + 1):
        for subset in itertools.combinations(primes, r):
            total += (-1) ** r * (x // math.prod(subset))
    return total


def _frac(obj) -> Fraction | None:
    return None if obj is None else Fraction(int(obj["num"]), int(obj["den"]))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)


def _expect(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:38] + "..." + text[-38:]


def s1_bound(x: int, j: int) -> Fraction:
    return x * mertens(j) + (1 << j)


def s2_bound(x: int, j: int, schedule: Schedule) -> Fraction:
    log2x = x.bit_length() - 1
    return x * mertens(j - 1) + (1 << (j - 1)) + schedule.boundary(j - 1) * log2x


def check_sumset(spec: dict, record: dict) -> list[str]:
    errors: list[str] = []
    schedule = Schedule(spec["schedule"])
    x = spec["x"]
    p = record["payload"]
    j = schedule.index(x)
    _expect(errors, "x", p["x"], x)
    _expect(errors, "j", p["j"], j)
    c, s1, s2 = p["c_count"], p["s1_count"], p["s2_count"]
    s1b, s2b, cb = _frac(p["s1_bound"]), _frac(p["s2_bound"]), _frac(p["c_bound"])
    _expect(errors, "s1 + s2", s1 + s2, c)
    if not s1 <= p["s1_legendre"] <= s1b:
        errors.append(f"s1 <= s1_legendre <= s1_bound fails: {s1}, {p['s1_legendre']}, {s1b}")
    if not c <= cb:
        errors.append(f"c_count {c} exceeds c_bound {cb}")
    _expect(errors, "s1_legendre", p["s1_legendre"], coprime_count(x, odd_primes(j)))
    _expect(errors, "s1_bound", s1b, s1_bound(x, j))
    _expect(errors, "s2_bound", s2b, s2_bound(x, j, schedule))
    _expect(errors, "c_bound", cb, s1_bound(x, j) + s2_bound(x, j, schedule))
    _expect(errors, "sqrt_check", p["sqrt_check"], (1 << (2 * j)) <= x)
    if not _close(p["density"], c / x):
        errors.append(f"density {p['density']} != c/x")
    if marks(x, schedule) <= MARKS_CAP:
        top, rest = sumset_classes(x, schedule)
        overlap = len(top & rest)
        _expect(errors, "c_count (set oracle)", c, len(top | rest))
        _expect(errors, "s1_count (set oracle)", s1, len(top))
        _expect(errors, "s1_overlap (set oracle)", p["s1_overlap"], overlap)
    return errors


def check_ratio_scan(spec: dict, record: dict) -> list[str]:
    errors: list[str] = []
    schedule = Schedule(spec["schedule"])
    points = record["payload"]["points"]
    _expect(errors, "grid", [pt["x"] for pt in points], spec["grid"])
    for pt in points:
        x, b, c = pt["x"], pt["b_count"], pt["c_count"]
        _expect(errors, f"b_count at {x}", b, count_b(x, schedule))
        _expect(errors, f"ratio at {x}", _frac(pt["ratio"]), Fraction(c, b) if b else None)
        n_marks = marks(x, schedule)
        if not c <= n_marks:
            errors.append(f"c_count {c} exceeds the {n_marks} witness pairs at {x}")
        if n_marks <= MARKS_CAP:
            top, rest = sumset_classes(x, schedule)
            _expect(errors, f"c_count at {x} (set oracle)", c, len(top | rest))
    return errors


def _check_count(errors: list, x: int, schedule: Schedule, count: dict) -> int:
    j = schedule.index(x)
    b = count_b(x, schedule)
    a = x.bit_length() - 1
    _expect(errors, "x", count["x"], x)
    _expect(errors, "j", count["j"], j)
    _expect(errors, "b_count", count["b_count"], b)
    _expect(errors, "a_count", count["a_count"], a)
    _expect(errors, "ratio_exact", _frac(count["ratio_exact"]), Fraction(a * b, x))
    if not _close(count["conjecture_ratio"], a * b / x):
        errors.append(f"conjecture_ratio {count['conjecture_ratio']} != a*b/x")
    lower = None
    if j >= 2:
        g_j, g_prev = schedule.boundary(j), schedule.boundary(j - 1)
        lower = Fraction(x - g_j, modulus(j)) + Fraction(g_j - g_prev, modulus(j - 1)) - 2
        if not lower <= b:
            errors.append(f"b_count {b} below its lower bound")
    _expect(errors, "b_lower_bound", _frac(count["b_lower_bound"]), lower)
    return j


def check_count_b(spec: dict, record: dict) -> list[str]:
    errors: list[str] = []
    _check_count(errors, 1 << spec["e"], Schedule(spec["schedule"]), record["payload"])
    return errors


def check_bounds(spec: dict, record: dict) -> list[str]:
    errors: list[str] = []
    schedule = Schedule(spec["schedule"])
    x = 1 << spec["e"]
    p = record["payload"]
    j = _check_count(errors, x, schedule, p["count"])
    _expect(errors, "b_lower_holds", p["b_lower_holds"], True if j >= 2 else None)
    _expect(errors, "sqrt_check", p["sqrt_check"], (1 << (2 * j)) <= x)
    if schedule.kind == "paper":
        loglog = math.log(spec["e"] * math.log(2.0))
        lower = math.sqrt(loglog)
        upper = 2.0 * lower / math.sqrt(math.log(2.0))
        w = p["window"]
        _expect(errors, "window.j", w["j"], j)
        if not (_close(w["lower"], lower) and _close(w["upper"], upper)):
            errors.append(f"window ({w['lower']}, {w['upper']}) != ({lower}, {upper})")
        _expect(errors, "window.holds", w["holds"], w["lower"] < j <= w["upper"])
    else:
        _expect(errors, "window", p["window"], None)
    cheb = p["chebyshev"]
    theta = math.fsum(math.log(q) for q in odd_primes(j))
    if not (_close(cheb["theta"], theta) and _close(cheb["bound"], 2.0 * j * math.log(j))):
        errors.append(f"chebyshev ({cheb['theta']}, {cheb['bound']}) mismatch")
    _expect(errors, "chebyshev.holds", cheb["holds"], cheb["theta"] <= cheb["bound"])
    _expect(errors, "s1_bound", _frac(p["s1_bound"]), s1_bound(x, j))
    if j >= 2:
        s2 = s2_bound(x, j, schedule)
        _expect(errors, "s2_bound", _frac(p["s2_bound"]), s2)
        _expect(errors, "c_bound", _frac(p["c_bound"]), s1_bound(x, j) + s2)
    return errors


def progression_exceptions(residue: int, modulus_: int, limit: int) -> tuple[int, list]:
    """Members n <= limit of residue (mod modulus_), and each n = p + 2^k
    with p prime at the smallest k >= 1."""
    members = 0 if limit < residue else (limit - residue) // modulus_ + 1
    found = []
    for n in range(residue, limit + 1, modulus_):
        k = 1
        while (1 << k) < n:
            if sympy.isprime(n - (1 << k)):
                found.append([n, n - (1 << k), k])
                break
            k += 1
    return members, found


def check_depolignac(spec: dict, record: dict) -> list[str]:
    errors: list[str] = []
    p = record["payload"]
    if "residue" in spec:
        cert = {"residue": spec["residue"], "modulus": spec["modulus"]}
    else:
        cert = ERDOS_CERTIFICATE
    _expect(errors, "certificate", p["certificate"], cert)
    limit = spec["limit"]
    members, found = progression_exceptions(cert["residue"], cert["modulus"], limit)
    scan = p["scan"]
    _expect(errors, "limit", scan["limit"], limit)
    _expect(errors, "members_scanned", scan["members_scanned"], members)
    _expect(errors, "exceptions", scan["exceptions"], found)
    _expect(errors, "representable_fraction", scan["representable_fraction"], None)
    return errors


def check_sieve_count(spec: dict, record: dict) -> list[str]:
    errors: list[str] = []
    p = record["payload"]
    limit = spec["limit"]
    count = int(sympy.primepi(limit))
    _expect(errors, "limit", p["limit"], limit)
    _expect(errors, "prime_count", p["prime_count"], count)
    _expect(errors, "largest_prime", p["largest_prime"], int(sympy.prevprime(limit + 1)))
    _expect(errors, "odd_count", p["odd_count"], count - 1)
    return errors


def romanov_fraction(limit: int) -> float:
    """Share of odd n <= limit with n - 2^k prime for some k >= 1."""
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    prime[4::2] = False
    for q in range(3, math.isqrt(limit) + 1, 2):
        if prime[q]:
            prime[q * q :: 2 * q] = False
    hit = np.zeros(limit + 1, dtype=bool)
    power = 2
    while power < limit:
        hit[power:] |= prime[: limit + 1 - power]
        power <<= 1
    odd_total = (limit + 1) // 2
    return int(np.count_nonzero(hit[1::2])) / odd_total


def check_romanov(spec: dict, record: dict) -> list[str]:
    errors: list[str] = []
    scan = record["payload"]["scan"]
    limit = spec["limit"]
    _expect(errors, "limit", scan["limit"], limit)
    _expect(errors, "members_scanned", scan["members_scanned"], (limit + 1) // 2)
    _expect(errors, "exceptions", scan["exceptions"], [])
    fraction = scan["representable_fraction"]
    if limit <= ROMANOV_CAP:
        _expect(errors, "representable_fraction", fraction, romanov_fraction(limit))
    elif not 0.0 < fraction < 1.0:
        errors.append(f"representable_fraction {fraction} outside (0, 1)")
    return errors


CHECKS = {
    "sumset": check_sumset,
    "ratio-scan": check_ratio_scan,
    "count-b": check_count_b,
    "bounds": check_bounds,
    "depolignac-cert": check_depolignac,
    "depolignac-residue": check_depolignac,
    "sieve-count": check_sieve_count,
    "romanov-density": check_romanov,
}
