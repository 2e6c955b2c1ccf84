"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here was computed by an independent oracle (gcd
scans, membership scans, sort-unique enumeration, per-candidate
Miller-Rabin, prime sieves) before being frozen; the criteria compare
the library against those oracles at the stated tolerances and runtime
budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import sumsetlab as sl
from sumsetlab.experiments import BUILTIN_EXPERIMENTS, builtin_experiment, run_experiment
from sumsetlab.serialize import payload_json

PAPER = sl.GrowthSchedule.paper()
POLY = sl.GrowthSchedule.polynomial()

# regression constants measured by the marking oracle (criterion 10)
ROMANOV_PINNED = {10**5: Fraction(46606, 50000), 10**6: Fraction(460458, 500000)}


@pytest.fixture(scope="module")
def table_cheb():
    return sl.sieve_primes(120_000)


@pytest.fixture(scope="module")
def table_small():
    return sl.sieve_primes(1000)


@pytest.fixture(scope="module")
def paper_blocks():
    return sl.BlockSet.materialize(PAPER, 3)


@pytest.fixture(scope="module")
def poly_blocks():
    return sl.BlockSet.materialize(POLY, 6)


def _report(criterion, description, elapsed, budget):
    print(f"PASS criterion {criterion}: {description} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_01_legendre_identity():
    """legendre_count == brute-force gcd scan, all x <= 1e4, all subsets of {3,5,7,11,13}."""
    start = time.perf_counter()
    base = (3, 5, 7, 11, 13)
    top = 10**4
    xs = np.arange(0, top + 1, dtype=np.int64)
    for r in range(len(base) + 1):
        for subset in combinations(base, r):
            coprime = np.gcd(xs, math.prod(subset)) == 1
            coprime[0] = False
            scan = np.cumsum(coprime)
            for x in range(top + 1):
                assert sl.legendre_count(x, subset) == int(scan[x])
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _report(1, "Legendre identity on 32 prime subsets, x <= 1e4, zero tolerance", elapsed, 10)


def test_criterion_02_count_oracle(paper_blocks, poly_blocks, odd_primes_ref):
    """count_b == membership-scan enumeration (poly to 1e6, paper to 1e5)."""
    start = time.perf_counter()

    # polynomial oracle: locate each n's window [2^e(t), 2^e(t+1)) by boundary search,
    # then test divisibility by the product of the first t odd primes (sympy's)
    top = 10**6
    ns = np.arange(0, top + 1, dtype=np.int64)
    levels = range(1, poly_blocks.max_t + 1)
    boundaries = np.array([2 ** POLY.exponent(t) for t in [*levels, levels[-1] + 1]],
                          dtype=np.int64)
    moduli = np.array([math.prod(odd_primes_ref[:t]) for t in levels], dtype=np.int64)
    idx = np.searchsorted(boundaries, ns, side="right") - 1
    member = np.zeros(top + 1, dtype=bool)
    inside = (idx >= 0) & (idx < len(moduli))
    member[inside] = ns[inside] % moduli[idx[inside]] == 0
    oracle_poly = np.cumsum(member)
    for x in range(top + 1):
        assert sl.count_b(x, poly_blocks) == int(oracle_poly[x])

    # paper oracle: only two windows reach 1e5; hand-rolled membership test
    top = 10**5
    ns = np.arange(0, top + 1, dtype=np.int64)
    member = ((ns >= 4) & (ns < 65536) & (ns % 3 == 0)) | ((ns >= 65536) & (ns % 15 == 0))
    oracle_paper = np.cumsum(member)
    for x in range(top + 1):
        assert sl.count_b(x, paper_blocks) == int(oracle_paper[x])

    assert int(oracle_paper[10**5]) == 24141
    assert sl.count_b(10**5, paper_blocks) == 24141

    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(2, "count oracle (poly 1e6, paper 1e5, pinned 24141)", elapsed, 30)


def test_criterion_03_lower_bound_chain_at_paper_scale(paper_blocks):
    """Exact rational count >= lower bound at x in {2^20, 2^100, 2^600, 2^1000}."""
    start = time.perf_counter()
    for x in (2**20, 2**100, 2**600, 2**1000):
        j = sl.block_index(x, PAPER)
        assert j in (2, 3)
        bound = sl.count_b_lower_bound(x, paper_blocks)
        assert Fraction(sl.count_b(x, paper_blocks)) >= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _report(3, "lower-bound chain exact at 1000-bit x", elapsed, 5)


def test_criterion_04_ratio_predicate(paper_blocks):
    """conjecture_ratio > 1 on the paper grid; pinned value at 2^20."""
    start = time.perf_counter()
    for x in (2**20, 2**100, 2**600, 2**1000):
        report = sl.conjecture_ratio(x, paper_blocks)
        assert report.ratio_exact > 1
    pinned = sl.conjecture_ratio(2**20, paper_blocks)
    # 20 * 87380 / 2^20, both factors from the exact-count oracle of criterion 2
    assert pinned.ratio_exact == Fraction(20 * 87380, 2**20)
    assert abs(pinned.conjecture_ratio - 1.6666412353515625) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _report(4, "ratio predicate > 1 at paper scale, pinned 1.66664 at 2^20", elapsed, 5)


def test_criterion_05_split_and_sieve_bounds(poly_blocks, split_oracle, odd_primes_ref):
    """Partition identity, witness coprimality, and sieve bounds at desk scale."""
    start = time.perf_counter()
    for x in (10**3, 10**4, 10**5, 10**6):
        report = sl.c_upper_report(x, poly_blocks)
        assert report.s1_count + report.s2_count == report.c_count
        assert Fraction(report.s1_count) <= report.s1_bound
        assert Fraction(report.s2_count) <= report.s2_bound
        assert Fraction(report.c_count) <= report.c_bound

        j, top_mask, _ = split_oracle(x, POLY)
        d_j = math.prod(odd_primes_ref[:j])
        values = np.flatnonzero(top_mask)
        assert values.size == report.s1_count
        assert bool(np.all(np.gcd(values, d_j) == 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(5, "s1/s2 partition, coprimality, sieve bounds at 1e3..1e6", elapsed, 120)


def test_criterion_06_density_declines(poly_blocks):
    """Sumset density at 1e6 strictly below density at 1e3 (exact counts)."""
    start = time.perf_counter()
    c_small, _ = sl.enumerate_c(10**3, poly_blocks)
    c_large, _ = sl.enumerate_c(10**6, poly_blocks)
    assert Fraction(c_large, 10**6) < Fraction(c_small, 10**3)
    elapsed = time.perf_counter() - start
    _report(6, f"density decline {c_small}/1e3 -> {c_large}/1e6 strict", elapsed, 120)


def test_criterion_07_chebyshev():
    """theta(p_j) <= 2*j*log(j) for all 2 <= j <= 1e4 (1e-9 slack)."""
    start = time.perf_counter()
    primes = sl.first_odd_primes(10**4)
    # one running sum gives theta at every j; check_chebyshev adds the same
    # logs in the same order, so it must agree exactly where it is asked
    theta = 0.0
    for j, p in enumerate(primes, 1):
        theta += math.log(p)
        if j >= 2:
            assert theta <= 2 * j * math.log(j) + 1e-9
        if j <= 1000 or j % 100 == 0:
            check = sl.check_chebyshev(primes[:j])
            assert check.theta == theta
            assert check.holds == (j >= 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _report(7, "Chebyshev estimate holds for 2 <= j <= 1e4", elapsed, 5)


def test_criterion_08_mertens(odd_primes_ref):
    """Product window on [100, 1e4] and exact-fold agreement at j <= 50."""
    start = time.perf_counter()
    odd = np.array(sl.first_odd_primes(10**4), dtype=np.float64)
    running = np.cumprod(1.0 - 1.0 / odd)
    js = np.arange(100, 10**4 + 1)
    window = running[js - 1] * np.log(odd[js - 1])
    assert bool(np.all(window >= 0.898)) and bool(np.all(window <= 1.347))
    fold = Fraction(1)
    for j, p in enumerate(odd_primes_ref[:50], 1):
        fold *= Fraction(p - 1, p)
        assert sl.mertens_product(odd_primes_ref[:j]) == fold
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _report(8, "Mertens window [0.898, 1.347] and exact folds to j = 50", elapsed, 10)


def test_criterion_09_depolignac_audit():
    """Covering verifies, certificate modulus 11184810, scan to 3e7 matches oracle."""
    start = time.perf_counter()
    system = sl.default_covering_system()
    assert sl.covering_verify(system).covers
    cert = sl.crt_combine(system)
    assert cert.modulus == 11_184_810
    assert cert.residue == 7_629_217

    limit = 30_000_000
    report = sl.ap_scan(cert, limit)

    # independent oracle: the sieve's flags, where the sparse scan asks
    # Miller-Rabin per candidate; n is odd, so n - 2^k has its flag at (n - 2^k) // 2
    odd_prime = sl.sieve_primes(limit).odd_flags
    oracle_exceptions = []
    n = cert.residue
    while n <= limit:
        k = 1
        while 2**k < n:
            if odd_prime[(n - 2**k) // 2]:
                oracle_exceptions.append((n, n - 2**k, k))
                break
            k += 1
        n += cert.modulus
    assert report.members_scanned == 3
    assert len(report.exceptions) == len(oracle_exceptions) == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(9, "covering audit and exception-free scan to 3e7", elapsed, 120)


def test_criterion_10_romanov_density():
    """Pinned representable fractions at 1e5 and 1e6; both >= 0.2, close together."""
    start = time.perf_counter()
    fractions = {}
    for limit, pinned in ROMANOV_PINNED.items():
        report = sl.romanov_density_scan(limit)
        fractions[limit] = report.representable_fraction
        assert report.representable_fraction == pytest.approx(float(pinned), abs=1e-12)
        assert report.representable_fraction >= 0.2
    assert abs(fractions[10**5] - fractions[10**6]) < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(10, "Romanov density pinned at 0.93212 / 0.920916", elapsed, 60)


def test_criterion_11_determinism():
    """Every named experiment yields byte-identical JSON payloads twice."""
    start = time.perf_counter()
    for name in sorted(BUILTIN_EXPERIMENTS):
        first = run_experiment(builtin_experiment(name))
        second = run_experiment(builtin_experiment(name))
        blob1 = payload_json(first["payload"]).encode()
        blob2 = payload_json(second["payload"]).encode()
        assert blob1 == blob2, f"experiment {name} payload not deterministic"
    elapsed = time.perf_counter() - start
    _report(11, "byte-identical payloads for all named experiments", elapsed, 300)
