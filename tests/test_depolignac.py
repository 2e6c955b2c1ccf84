import math
import random
import re
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sumsetlab.arith as arith
import sumsetlab.depolignac as depolignac
from sumsetlab import (
    APCertificate,
    ConfigError,
    CoveringSystem,
    ap_scan,
    covering_verify,
    crt_combine,
    default_covering_system,
    is_prime,
    romanov_density_scan,
)

# Per-candidate primality from sympy, the oracle for the scan properties;
# it shares no code with either of ap_scan's primality sources.
MR_PRIME = [sympy.isprime(n) for n in range(3001)]
# MR_TEST_SLOTS values that force ap_scan onto one primality source
FORCE_MILLER_RABIN, FORCE_SIEVE = 0, 1 << 64


def _smallest_witness(n, k_min):
    """The smallest k >= k_min with n - 2^k prime, or None."""
    k = k_min
    while 2**k < n:
        if MR_PRIME[n - 2**k]:
            return k
        k += 1
    return None


ERDOS_TRIPLES = [(0, 2, 3), (0, 3, 7), (1, 4, 5), (3, 8, 17), (7, 12, 13), (23, 24, 241)]
# (q, the order of 2 mod q): any multiple of the order is a valid modulus for q
ORDERS = [(3, 2), (7, 3), (5, 4), (31, 5), (127, 7), (17, 8), (73, 9), (11, 10), (23, 11),
          (13, 12), (241, 24)]
# the same pairs for every odd prime below 300
ODD_PRIME_ORDERS = [(q, sympy.n_order(2, q)) for q in sympy.primerange(3, 300)]


@pytest.fixture(scope="module")
def erdos():
    return CoveringSystem.from_entries(ERDOS_TRIPLES)


# each malformed system, by its (residue, modulus, prime) triples, and the message it earns
MALFORMED = {
    ((0, 3, 5),): "q=5 does not divide 2^modulus - 1 with modulus=3 in entry 0",
    ((0, 1, 1),): "modulus=1 < 2 in entry 0",  # q = 1 is not prime either
    ((0, 2, 3), (0, 4, 3)): "duplicate prime q=3 in entry 1",
    ((0, 2, 9),): "q=9 is not prime in entry 0",
}


class TestCoveringVerify:
    def test_classical_system_covers(self, erdos):
        check = covering_verify(erdos)
        assert check.covers
        assert check.uncovered == ()
        assert erdos.lcm == 24

    def test_shipped_default_matches_classical(self, erdos):
        assert default_covering_system() == erdos

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ODD_PRIME_ORDERS), st.integers(min_value=1),
                              st.integers()),
                    max_size=6, unique_by=lambda pick: pick[0]))
    def test_json_round_trip(self, picks):
        system = CoveringSystem.from_entries((a, k * order, q) for (q, order), k, a in picks)
        assert CoveringSystem.from_json(system.to_json()) == system

    def test_partial_system(self):
        system = CoveringSystem.from_entries([(0, 2, 3), (1, 4, 5)])
        check = covering_verify(system)
        assert not check.covers
        assert 3 in check.uncovered  # k = 3 (mod 4) misses both classes

    def test_empty_system(self):
        check = covering_verify(CoveringSystem(()))
        assert not check.covers
        assert check.uncovered == (0,)

    def test_residue_scan_agrees_with_direct_per_k_check(self, erdos):
        partial = CoveringSystem.from_entries([(0, 2, 3), (1, 4, 5)])
        for system in (erdos, partial):
            uncovered = set(covering_verify(system).uncovered)
            for k in range(10 * system.lcm):
                direct = any((k - e.residue) % e.modulus == 0 for e in system.entries)
                assert direct == (k % system.lcm not in uncovered)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ORDERS), st.integers(1, 3), st.integers(-30, 60)),
                    max_size=6, unique_by=lambda pick: pick[0]))
    def test_strided_marking_matches_a_scan_of_every_residue(self, picks):
        system = CoveringSystem.from_entries((a, k * order, q) for (q, order), k, a in picks)
        assume(system.lcm <= 50_000)
        uncovered = tuple(r for r in range(system.lcm)
                          if not any((r - e.residue) % e.modulus == 0 for e in system.entries))
        check = covering_verify(system)
        assert check.uncovered == uncovered
        assert check.covers == (bool(picks) and not uncovered)

    @pytest.mark.parametrize("triples", list(MALFORMED))
    def test_constructor_refuses_malformed_systems(self, triples):
        with pytest.raises(ConfigError, match=f"^{re.escape(MALFORMED[triples])}$"):
            covering_verify(CoveringSystem.from_entries(triples))


class TestCrtCombine:
    def test_classical_certificate(self, erdos):
        cert = crt_combine(erdos)
        assert cert.modulus == 2 * 3 * 7 * 5 * 17 * 13 * 241 == 11_184_810
        assert cert.residue == 7_629_217

    def test_resubstitution(self, erdos):
        cert = crt_combine(erdos)
        assert cert.residue % 2 == 1
        for e in erdos.entries:
            assert cert.residue % e.prime == pow(2, e.residue, e.prime)

    def test_not_covering_rejected(self):
        system = CoveringSystem.from_entries([(0, 2, 3)])
        with pytest.raises(ConfigError, match=r"^system misses residues \(1,\) \(mod 2\)$"):
            crt_combine(system)

    def test_constructor_refuses_malformed_before_crt(self):
        with pytest.raises(ConfigError, match="^modulus=1 < 2 in entry 0$"):
            crt_combine(CoveringSystem.from_entries([(0, 1, 1)]))

    def test_shipped_certificate_is_built_once(self, erdos):
        # the shipped system is read once, and an equal system hashes to its certificate
        system = default_covering_system()
        assert default_covering_system() is system
        cert = crt_combine(system)
        assert crt_combine(system) is cert
        assert crt_combine(erdos) is cert
        assert crt_combine(CoveringSystem.from_entries(ERDOS_TRIPLES)) is cert

    def test_errors_are_not_cached(self):
        not_covering = CoveringSystem.from_entries([(0, 2, 3)])
        for _ in range(3):
            with pytest.raises(ConfigError, match=r"^system misses residues \(1,\) \(mod 2\)$"):
                crt_combine(not_covering)
            with pytest.raises(ConfigError, match="^modulus=1 < 2 in entry 0$"):
                CoveringSystem.from_entries([(0, 1, 1)])

    def test_certificate_validation(self, erdos):
        with pytest.raises(ValueError):
            APCertificate(residue=2, modulus=10)  # even residue
        with pytest.raises(ValueError):
            APCertificate(residue=1, modulus=11_184_810, source=erdos)

    @pytest.mark.parametrize(
        "residue,modulus,source",
        [(10**5000, 3, False), (10**5000, 10**5001, False), (10**5000 + 1, 10**5001, True)],
        ids=["outside", "even", "not-from-source"],
    )
    def test_certificate_messages_name_huge_values_by_size(self, erdos, residue, modulus,
                                                           source):
        with pytest.raises(ValueError, match="residue of 16610 bits") as info:
            APCertificate(residue=residue, modulus=modulus, source=erdos if source else None)
        assert len(str(info.value)) < 200

    @given(st.integers(min_value=-1000, max_value=1000))
    def test_shifted_system_certificate_invariants(self, shift):
        # shifting every class by s keeps the system covering
        system = CoveringSystem.from_entries(
            ((a + shift) % m, m, q) for a, m, q in ERDOS_TRIPLES
        )
        cert = crt_combine(system)
        primes = [q for _, _, q in ERDOS_TRIPLES]
        assert cert.modulus == 2 * math.prod(primes)
        assert 0 < cert.residue < cert.modulus and cert.residue % 2 == 1
        for a, _, q in ERDOS_TRIPLES:
            # a negative exponent inverts 2 mod q
            assert cert.residue % q == pow(2, a + shift, q)
        for k in range(system.lcm + 1):
            assert any((cert.residue - 2**k) % q == 0 for q in primes)

    def test_members_are_never_prime_plus_power(self, erdos):
        # structural soundness, independent of any primality testing:
        # every member minus every power of two has a system prime divisor
        cert = crt_combine(erdos)
        n = cert.residue
        while n <= 40_000_000:
            k = 1
            while 2**k < n:
                value = n - 2**k
                assert any(value % e.prime == 0 for e in erdos.entries)
                k += 1
            n += cert.modulus


class TestApScan:
    def test_vacuous_below_first_member(self, erdos):
        cert = crt_combine(erdos)
        report = ap_scan(cert, 10**5)
        assert report.members_scanned == 0
        assert report.exceptions == ()

    def test_three_members_to_3e7(self, erdos):
        cert = crt_combine(erdos)
        report = ap_scan(cert, 30_000_000)
        assert report.members_scanned == 3
        assert report.exceptions == ()

    def test_all_odd_progression_has_exceptions(self):
        cert = APCertificate(residue=1, modulus=2)
        report = ap_scan(cert, 100)
        assert report.members_scanned == 50
        assert (5, 3, 1) in report.exceptions
        for n, p, k in report.exceptions:
            assert p + 2**k == n
            assert is_prime(p)

    def test_k_min_shifts_witnesses(self):
        cert = APCertificate(residue=1, modulus=2)
        report = ap_scan(cert, 30, k_min=2)
        for n, p, k in report.exceptions:
            assert k >= 2
            assert p + 2**k == n


    @given(
        st.integers(min_value=1, max_value=49).map(lambda h: 2 * h + 1),
        st.data(),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=64),
    )
    def test_odd_moduli_match_per_member_primality(self, modulus, data, limit, k_min, segment):
        # an odd modulus puts members of both parities in the progression
        residue = data.draw(st.integers(min_value=0, max_value=modulus // 2 - 1)) * 2 + 1
        cert = APCertificate(residue=residue, modulus=modulus)
        members = range(residue, limit + 1, modulus)
        expected = []
        for n in members:
            k = _smallest_witness(n, k_min)
            if k is not None:
                expected.append((n, n - 2**k, k))
        # small sieve segments so the table crosses several of them
        for slots in (FORCE_MILLER_RABIN, FORCE_SIEVE):
            with mock.patch.object(arith, "SEGMENT", segment), \
                    mock.patch.object(depolignac, "MR_TEST_SLOTS", slots):
                report = ap_scan(cert, limit, k_min)
            assert report.members_scanned == len(members)
            assert report.exceptions == tuple(expected)

    def test_sieve_reaches_the_last_member_only(self, erdos, monkeypatch):
        limits = []
        real_sieve = depolignac.sieve_primes

        def recording_sieve(limit):
            limits.append(limit)
            return real_sieve(limit)

        monkeypatch.setattr(depolignac, "sieve_primes", recording_sieve)
        # sparse progressions ask Miller-Rabin and build no sieve: members *
        # last.bit_length() * MR_TEST_SLOTS < (last + 1) // 2
        cert = crt_combine(erdos)
        ap_scan(cert, 10**6)
        assert ap_scan(cert, 30_000_000).members_scanned == 3
        assert ap_scan(APCertificate(residue=1, modulus=10**6), 10**7).members_scanned == 10
        assert limits == []
        # dense ones sieve to their last member and no further
        assert ap_scan(APCertificate(residue=1, modulus=10**4), 10**7).members_scanned == 1_000
        assert ap_scan(APCertificate(residue=1, modulus=2), 100_000).members_scanned == 50_000
        assert ap_scan(APCertificate(residue=3, modulus=4), 10_000).members_scanned == 2_500
        assert limits == [9_990_001, 99_999, 9_999]

    def test_both_sources_agree_on_wide_even_moduli(self):
        # the certificate's modulus with other odd residues: most members
        # are representable, with witnesses from k = 1 to k = 17
        rng = random.Random(20)
        for residue in [1, 3, 11_184_809] + [2 * rng.randrange(5_592_405) + 1 for _ in range(5)]:
            cert = APCertificate(residue=residue, modulus=11_184_810)
            reports = []
            for slots in (FORCE_MILLER_RABIN, FORCE_SIEVE):
                with mock.patch.object(depolignac, "MR_TEST_SLOTS", slots):
                    reports.append(ap_scan(cert, 20_000_000, k_min=1))
            assert reports[0] == reports[1]
            for n, p, k in reports[0].exceptions:
                assert p + 2**k == n and sympy.isprime(p)


class TestRomanovScan:
    @given(
        st.integers(min_value=3, max_value=3000),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    def test_matches_per_member_primality(self, limit, k_min, segment, mark_segment):
        odd = range(1, limit + 1, 2)
        hits = sum(1 for n in odd if _smallest_witness(n, k_min) is not None)
        # small sieve and marking segments so both passes cross several
        with mock.patch.object(arith, "SEGMENT", segment), \
                mock.patch.object(depolignac, "MARK_SEGMENT", mark_segment):
            report = romanov_density_scan(limit, k_min)
        assert report.members_scanned == len(odd)
        assert report.representable_fraction == hits / len(odd)

    def test_limit_ten(self):
        report = romanov_density_scan(10)
        assert report.members_scanned == 5
        assert report.representable_fraction == pytest.approx(0.6)

    def test_limit_three(self):
        report = romanov_density_scan(3)
        assert report.representable_fraction == 0.0

    def test_limit_hundred(self):
        # only 1 and 3 are non-representable below 100 (127 is the first beyond)
        report = romanov_density_scan(100)
        assert report.representable_fraction == pytest.approx(48 / 50)

    def test_matches_per_member_oracle(self):
        limit = 2001
        hits = 0
        total = 0
        for n in range(1, limit + 1, 2):
            total += 1
            k = 1
            while 2**k < n:
                if is_prime(n - 2**k):
                    hits += 1
                    break
                k += 1
        report = romanov_density_scan(limit)
        assert report.members_scanned == total
        assert report.representable_fraction == pytest.approx(hits / total, abs=1e-15)

    def test_k_min_two(self):
        report = romanov_density_scan(10, k_min=2)
        assert report.representable_fraction == pytest.approx(0.4)  # {7, 9}

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            romanov_density_scan(2)
