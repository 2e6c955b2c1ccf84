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

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .arith import check_sieve_limit, is_prime, sieve_primes
from .errors import CRTError, MalformedSystemError, NotCoveringError

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


@dataclass(frozen=True)
class CoveringEntry:
    """Residue class ``residue (mod modulus)`` tagged with its prime divisor of 2^modulus - 1."""

    residue: int
    modulus: int
    prime: int


@dataclass(frozen=True)
class CoveringSystem:
    """A finite family of residue classes with order-of-2 witnesses."""

    entries: tuple[CoveringEntry, ...]

    @property
    def lcm(self) -> int:
        return math.lcm(*(e.modulus for e in self.entries)) if self.entries else 1

    def validate(self) -> None:
        """Structural audit; raises MalformedSystemError on any violation.

        Checks per entry: modulus >= 2, prime is actually prime, primes
        pairwise distinct, and 2^modulus == 1 (mod prime).
        """
        seen: set[int] = set()
        for e in self.entries:
            if e.modulus < 2:
                raise MalformedSystemError(f"modulus {e.modulus} < 2 in entry {e}")
            if e.prime < 2 or not is_prime(e.prime):
                raise MalformedSystemError(f"q={e.prime} is not prime in entry {e}")
            if e.prime in seen:
                raise MalformedSystemError(f"duplicate prime q={e.prime}")
            seen.add(e.prime)
            if pow(2, e.modulus, e.prime) != 1:
                raise MalformedSystemError(
                    f"q={e.prime} does not divide 2^{e.modulus} - 1"
                )

    @classmethod
    def from_entries(cls, triples) -> "CoveringSystem":
        return cls(tuple(CoveringEntry(int(a), int(m), int(q)) for a, m, q in triples))

    def to_json(self) -> dict:
        return {
            "entries": [
                {"residue": e.residue, "modulus": e.modulus, "prime": e.prime}
                for e in self.entries
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CoveringSystem":
        return cls.from_entries(
            (e["residue"], e["modulus"], e["prime"]) for e in obj["entries"]
        )


class CoverCheck(NamedTuple):
    covers: bool
    uncovered: tuple[int, ...]  # residues mod lcm missed by every class


def covering_verify(system: CoveringSystem) -> CoverCheck:
    """Decide whether the residue classes cover every integer.

    Scans all residues modulo the lcm of the moduli; the empty system
    covers nothing.

    Raises:
        MalformedSystemError: structural invariant violated.
    """
    system.validate()
    L = system.lcm
    uncovered = tuple(
        k
        for k in range(L)
        if not any((k - e.residue) % e.modulus == 0 for e in system.entries)
    )
    return CoverCheck(covers=bool(system.entries) and not uncovered, uncovered=uncovered)


@dataclass(frozen=True)
class APCertificate:
    """Arithmetic progression residue (mod modulus) of odd numbers n with
    some system prime dividing n - 2^k for every k >= 1."""

    residue: int
    modulus: int
    source: CoveringSystem | None = None

    def __post_init__(self) -> None:
        if not 0 < self.residue < self.modulus:
            raise ValueError(f"residue must lie in (0, modulus), got {self.residue}")
        if self.residue % 2 == 0:
            raise ValueError(f"certificate residue must be odd, got {self.residue}")
        if self.source is not None:
            for e in self.source.entries:
                if self.residue % e.prime != pow(2, e.residue, e.prime):
                    raise ValueError(
                        f"residue {self.residue} != 2^{e.residue} (mod {e.prime})"
                    )

    def to_json(self) -> dict:
        payload = {"residue": self.residue, "modulus": self.modulus}
        if self.source is not None:
            payload["source"] = self.source.to_json()
        return payload


def _crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Solve the simultaneous congruences; moduli must be pairwise coprime."""
    r, m = 0, 1
    for a, n in zip(residues, moduli):
        if math.gcd(m, n) != 1:
            raise CRTError(f"moduli {m} and {n} are not coprime")
        r += m * ((a - r) * pow(m, -1, n) % n)
        m *= n
    return r % m, m


def crt_combine(system: CoveringSystem) -> APCertificate:
    """Combine a verified covering system into a progression certificate.

    Solves n == 1 (mod 2) and n == 2^a_i (mod q_i) for all entries. Any n
    in the resulting class has, for every k >= 1, some q_i dividing
    n - 2^k: pick the entry covering k, then 2^k == 2^a_i (mod q_i).

    Raises:
        MalformedSystemError: invalid entry data.
        NotCoveringError: the system leaves some k uncovered.
        CRTError: non-coprime moduli (distinct odd primes never trigger this).
    """
    check = covering_verify(system)
    if not check.covers:
        raise NotCoveringError(
            f"system misses residues {check.uncovered[:8]} (mod {system.lcm})"
        )
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


def ap_scan(cert: APCertificate, limit: int, k_min: int = 1) -> ScanReport:
    """Test every progression member n <= limit for n = p + 2^k.

    For each member, every exponent k >= k_min with 2^k < n is tried
    against a sieve that reaches the last member and no further (no
    sieve at all below the first member); any representable member is
    recorded with its smallest-k witness rather than assumed away
    (n - 2^k can equal a system prime, which IS prime).

    Raises:
        ValueError: limit < 1 or k_min < 0.
        CapacityError: limit >= 2^SIEVE_LIMIT_BITS.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if k_min < 0:
        raise ValueError(f"k_min must be >= 0, got {k_min}")
    check_sieve_limit(limit, "scan")
    if limit < cert.residue:
        return ScanReport(limit=limit, members_scanned=0)
    members = range(cert.residue, limit + 1, cert.modulus)
    # a memoryview reads single flags faster than numpy indexing
    odd = memoryview(sieve_primes(max(members[-1], 2)).odd_flags)
    exceptions = []
    for n in members:
        k = k_min
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
        ValueError: limit < 3 or k_min < 0.
        CapacityError: limit >= 2^SIEVE_LIMIT_BITS.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    if k_min < 0:
        raise ValueError(f"k_min must be >= 0, got {k_min}")
    odd = sieve_primes(limit).odd_flags
    odd_total = (limit + 1) // 2  # odd numbers 1, 3, ..., <= limit
    # no k >= 1 reaches 3 (3 - 2 = 1), so k = 0 adds it exactly once
    odd_hits = int(k_min == 0)
    first_shift = 1 << (max(k_min, 1) - 1)
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


def default_covering_system() -> CoveringSystem:
    """The classical six-entry covering system shipped with the package."""
    data = resources.files("sumsetlab.data").joinpath("erdos_covering.json")
    return CoveringSystem.from_json(json.loads(data.read_text()))
