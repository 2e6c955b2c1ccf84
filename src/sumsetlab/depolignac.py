"""Covering-congruence certificates and prime-plus-power-of-two scans.

A covering system pairs each residue class a_i (mod m_i) with a prime q_i
dividing 2^m_i - 1. When the classes cover all integers, the Chinese
remainder theorem produces an arithmetic progression of odd numbers n such
that every n - 2^k is divisible by some q_i, so n is never a prime plus a
power of two unless n - 2^k equals q_i itself. The scanners here audit
that claim by brute force rather than trusting it, and measure the
empirical density of odd numbers that ARE representable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .arith import MR_BOUND, SIEVE_LIMIT_BITS, check_sieve_limit, is_prime, sieve_primes
from .errors import ConfigError, at_least, int_name, json_int

__all__ = [
    "CoveringEntry",
    "CoveringSystem",
    "APCertificate",
    "ScanReport",
    "CoverCheck",
    "covering_verify",
    "crt_combine",
    "ap_scan",
    "romanov_density_scan",
    "default_covering_system",
]

# Odd slots per Romanov marking segment: each shift reads a flag window
# as well as writing the buffer, and 2^17 to 2^19 measured fastest at
# 5*10^7 on a 4 MiB L2.
MARK_SEGMENT = 1 << 18

# Sieve slots one Miller-Rabin candidate test is charged in ap_scan:
# is_prime took 2.3-3.7 us on an odd composite with no factor <= 37
# below 2^30, against about 2 ns per sieved odd slot (2 vCPU, Python
# 3.11.7). ap_scan charges every k of every member, so on measured
# progressions (odd and even moduli 2*10^4 to 1.1*10^7, limits 10^6 to
# 5*10^7) the break-even lay at 220-1300 slots per charged test.
MR_TEST_SLOTS = 2000


@dataclass(frozen=True)
class CoveringEntry:
    """Residue class ``residue (mod modulus)`` tagged with its prime divisor of 2^modulus - 1."""

    residue: int
    modulus: int
    prime: int


@dataclass(frozen=True)
class CoveringSystem:
    """A finite family of residue classes with order-of-2 witnesses, checked when built."""

    entries: tuple[CoveringEntry, ...]

    @property
    def lcm(self) -> int:
        return math.lcm(*(e.modulus for e in self.entries)) if self.entries else 1

    def __post_init__(self) -> None:
        """Structural audit; raises ConfigError on any violation.

        Checks per entry: modulus >= 2, prime below MR_BOUND and actually
        prime, primes pairwise distinct, and 2^modulus == 1 (mod prime). Messages name
        the entry by its index and each field through ``int_name``.
        """
        seen: set[int] = set()
        for i, e in enumerate(self.entries):
            modulus, q = int_name("modulus", e.modulus), int_name("q", e.prime)
            if e.modulus < 2:
                raise ConfigError(f"{modulus} < 2 in entry {i}")
            if e.prime >= MR_BOUND:
                raise ConfigError(f"{q} exceeds the deterministic Miller-Rabin bound in entry {i}")
            if e.prime < 2 or not is_prime(e.prime):
                raise ConfigError(f"{q} is not prime in entry {i}")
            if e.prime in seen:
                raise ConfigError(f"duplicate prime {q} in entry {i}")
            seen.add(e.prime)
            if pow(2, e.modulus, e.prime) != 1:
                raise ConfigError(f"{q} does not divide 2^modulus - 1 with {modulus} in entry {i}")

    @classmethod
    def from_entries(cls, triples) -> "CoveringSystem":
        return cls(tuple(
            CoveringEntry(*(json_int(v, "covering entry field") for v in (a, m, q)))
            for a, m, q in triples
        ))

    def to_json(self) -> dict:
        return {"entries": [{"residue": e.residue, "modulus": e.modulus, "prime": e.prime}
                            for e in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "CoveringSystem":
        """Read ``{"entries": [{"residue", "modulus", "prime"}, ...]}``.

        Raises:
            ConfigError: any other shape, or an entry field that
                is not an integer.
        """
        entries = obj.get("entries") if isinstance(obj, dict) else None
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ConfigError(
                "covering system must be an object whose 'entries' is a list of objects"
            )
        try:
            return cls.from_entries((e["residue"], e["modulus"], e["prime"]) for e in entries)
        except KeyError as exc:
            raise ConfigError(f"covering entry missing {exc}") from None


class CoverCheck(NamedTuple):
    covers: bool
    uncovered: tuple[int, ...]  # residues mod lcm missed by every class


def covering_verify(system: CoveringSystem) -> CoverCheck:
    """Decide whether the residue classes cover every integer.

    Clears each class from a flag per residue modulo the lcm of the moduli
    by one strided slice, then reads the residues left; the empty system
    covers nothing. The lcm is taken one modulus at a time and stops at
    the first partial lcm past the cap, so huge moduli are never all
    multiplied out.

    Raises:
        CapacityError: a partial lcm >= 2^SIEVE_LIMIT_BITS; raised before the scan.
    """
    L = 1
    for e in system.entries:
        L = math.lcm(L, e.modulus)
        if L.bit_length() > SIEVE_LIMIT_BITS:
            break
    check_sieve_limit(L, "covering lcm")
    left = bytearray([1]) * L
    for e in system.entries:
        start = e.residue % e.modulus
        left[start :: e.modulus] = bytes(len(range(start, L, e.modulus)))
    uncovered = tuple(itertools.compress(range(L), left))
    return CoverCheck(covers=not uncovered, uncovered=uncovered)


@dataclass(frozen=True)
class APCertificate:
    """Arithmetic progression residue (mod modulus) of odd numbers n with
    some system prime dividing n - 2^k for every k >= 1."""

    residue: int
    modulus: int
    source: CoveringSystem | None = None

    def __post_init__(self) -> None:
        # a residue or modulus given on the command line may run to 333,335 digits
        residue = int_name("residue", self.residue)
        if not 0 < self.residue < self.modulus:
            raise ConfigError(
                f"residue must lie in (0, modulus), got {residue}, "
                f"{int_name('modulus', self.modulus)}"
            )
        if self.residue % 2 == 0:
            raise ConfigError(f"certificate residue must be odd, got {residue}")
        if self.source is not None:
            for i, e in enumerate(self.source.entries):
                if self.residue % e.prime != pow(2, e.residue, e.prime):
                    raise ConfigError(
                        f"{residue} != 2^a (mod q) with {int_name('a', e.residue)}, "
                        f"{int_name('q', e.prime)} in entry {i}"
                    )


def _crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Solve the simultaneous congruences; moduli must be pairwise coprime."""
    r, m = 0, 1
    for a, n in zip(residues, moduli):
        r += m * ((a - r) * pow(m, -1, n) % n)
        m *= n
    return r % m, m


@functools.cache
def crt_combine(system: CoveringSystem) -> APCertificate:
    """Combine a verified covering system into a progression certificate.

    Solves n == 1 (mod 2) and n == 2^a_i (mod q_i) for all entries. Any n
    in the resulting class has, for every k >= 1, some q_i dividing
    n - 2^k: pick the entry covering k, then 2^k == 2^a_i (mod q_i).

    Memoized: a system hashes by value, so each distinct system is
    covers-checked and combined once per process, and repeat calls return
    the same certificate. An error is not cached; a system that does not
    cover raises on every call.

    Raises:
        ConfigError: the system leaves some k uncovered.
        CapacityError: the lcm of the moduli is at or past 2^SIEVE_LIMIT_BITS.
    """
    check = covering_verify(system)
    if not check.covers:
        raise ConfigError(f"system misses residues {check.uncovered[:8]} (mod {system.lcm})")
    residues = [1] + [pow(2, e.residue, e.prime) for e in system.entries]
    moduli = [2] + [e.prime for e in system.entries]
    r, m = _crt(residues, moduli)
    return APCertificate(residue=r, modulus=m, source=system)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a representation scan.

    exceptions holds (n, p, k) witnesses with n = p + 2^k and p prime;
    representable_fraction is filled by the density scan only.
    """

    limit: int
    members_scanned: int
    exceptions: tuple[tuple[int, int, int], ...] = ()
    representable_fraction: float | None = None


class _MillerRabinFlags:
    """Per-candidate Miller-Rabin read like the sieve's odd flags: item i
    is whether 2i + 1 is prime. The dense path keeps its memoryview
    subscript, which ran about 15% faster than a predicate call on the
    odd numbers to 10^6."""

    def __getitem__(self, i: int) -> bool:
        return is_prime(2 * i + 1)


def ap_scan(cert: APCertificate, limit: int, k_min: int = 1) -> ScanReport:
    """Test every progression member n <= limit for n = p + 2^k.

    For each member, every exponent k >= k_min with 2^k < n is tried,
    and any representable member is recorded with its smallest-k witness
    rather than assumed away (n - 2^k can equal a system prime, which IS
    prime).

    The primality of the candidates n - 2^k comes from one of two
    sources, picked by the work each would do. A sparse progression
    (members * last.bit_length() * MR_TEST_SLOTS below the (last + 1) // 2
    odd slots a sieve to the last member would fill) asks Miller-Rabin
    per candidate and holds no sieve. A dense one sieves to its last
    member and no further. Both feed the same member/k loop and give the
    same report.

    Raises:
        ConfigError: limit < 1 or k_min < 0.
        CapacityError: limit >= 2^SIEVE_LIMIT_BITS.
    """
    at_least("limit", limit, 1)
    at_least("k_min", k_min, 0)
    check_sieve_limit(limit, "scan limit")
    if limit < cert.residue:
        return ScanReport(limit=limit, members_scanned=0)
    members = range(cert.residue, limit + 1, cert.modulus)
    last = members[-1]
    if len(members) * last.bit_length() * MR_TEST_SLOTS < (last + 1) // 2:
        odd = _MillerRabinFlags()
    else:
        # a memoryview reads single flags faster than numpy indexing
        odd = memoryview(sieve_primes(max(last, 2)).odd_flags)
    exceptions = []
    k_first = min(k_min, last.bit_length())  # 2^k > last from there on: no k to try
    for n in members:
        k = k_first
        while (1 << k) < n:
            p = n - (1 << k)
            if odd[p >> 1] if p & 1 else p == 2:
                exceptions.append((n, p, k))
                break
            k += 1
    return ScanReport(limit=limit, members_scanned=len(members), exceptions=tuple(exceptions))


def romanov_density_scan(limit: int, k_min: int = 1) -> ScanReport:
    """Fraction of odd n <= limit representable as prime + 2^k, k >= k_min.

    Works on the sieve's odd flags: for k >= 1, odd n = p + 2^k has p odd
    and sits 2^(k-1) odd slots above it, so each k ORs the flags shifted
    by 2^(k-1) into a hit buffer. The buffer covers MARK_SEGMENT odd slots
    and is reused segment by segment, counting the hits as it goes. With
    k = 0 the only odd sum is 3 = 2 + 2^0. Memory is one byte per odd
    number up to the limit (the sieve) plus one segment.

    Raises:
        ConfigError: limit < 3 or k_min < 0.
        CapacityError: limit >= 2^SIEVE_LIMIT_BITS.
    """
    at_least("limit", limit, 3)
    at_least("k_min", k_min, 0)
    import numpy as np

    odd = sieve_primes(limit).odd_flags
    odd_total = (limit + 1) // 2  # odd numbers 1, 3, ..., <= limit
    # no k >= 1 reaches 3 (3 - 2 = 1), so k = 0 adds it exactly once
    odd_hits = int(k_min == 0)
    # a shift of 2^(k-1) >= odd_total marks nothing, and a k_min of many digits cannot shift
    first_shift = 1 << (min(max(k_min, 1), odd_total.bit_length() + 1) - 1)
    buffer = np.empty(min(MARK_SEGMENT, odd_total), dtype=bool)
    for lo in range(0, odd_total, MARK_SEGMENT):
        hi = min(lo + MARK_SEGMENT, odd_total)
        hit = buffer[: hi - lo]
        hit[:] = False
        shift = first_shift
        while shift < hi:
            start = max(lo, shift)
            hit[start - lo :] |= odd[start - shift : hi - shift]
            shift <<= 1
        odd_hits += int(np.count_nonzero(hit))
    return ScanReport(
        limit=limit,
        members_scanned=odd_total,
        representable_fraction=odd_hits / odd_total,
    )


# Erdős's covering system as (residue, modulus, prime) triples; each prime divides 2^modulus - 1
_ERDOS_ENTRIES = ((0, 2, 3), (0, 3, 7), (1, 4, 5), (3, 8, 17), (7, 12, 13), (23, 24, 241))


@functools.cache
def default_covering_system() -> CoveringSystem:
    """The classical six-entry covering system shipped with the package, built once per process."""
    return CoveringSystem.from_entries(_ERDOS_ENTRIES)
