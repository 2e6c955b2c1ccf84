"""Tests of the benchmark's own code: generators, oracles and span arithmetic.

Run from the repository root with ``python -m pytest bench``.
"""

import itertools
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = "bench/_work"
ENUM_BUDGET = 10**8
BIT_BUDGET = 10**6
SIEVE_CAP_BITS = 34  # the CLI refuses sieve-count / romanov-density limits past 2^34


def _requests(workload: str, seed: int, n: int = 240) -> list:
    reqs = list(itertools.islice(workloads.requests(workload, seed, WORKDIR), n))
    reqs += workloads.warmup(workload, seed, WORKDIR)
    if workload == "paper-chain":
        reqs += workloads.contract_probes(seed)
    return reqs


def _argv_value(argv: tuple, flag: str) -> str:
    return argv[argv.index(flag) + 1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(workload):
    first = [r.argv for r in _requests(workload, 5)]
    again = [r.argv for r in _requests(workload, 5)]
    other = [r.argv for r in _requests(workload, 6)]
    assert first == again
    assert first != other
    assert workloads.custom_exponents(workload, 5) == workloads.custom_exponents(workload, 5)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_requests_inside_cli_contract(workload, seed):
    customs = workloads.custom_exponents(workload, seed)
    for request in _requests(workload, seed):
        argv = request.argv
        if request.kind == "sumset":
            assert 1 <= int(_argv_value(argv, "--x")) <= ENUM_BUDGET
        elif request.kind == "ratio-scan":
            grid = [int(v) for v in _argv_value(argv, "--grid").split(",")]
            assert 3 <= len(grid) <= 4
            assert all(1 <= a < b for a, b in zip(grid, grid[1:]))
            assert grid[-1] <= ENUM_BUDGET
        elif request.kind in ("count-b", "bounds"):
            text = _argv_value(argv, "--x")
            assert text.startswith("2^")
            assert 1 <= int(text[2:]) < BIT_BUDGET
        else:
            limit = int(_argv_value(argv, "--limit"))
            assert limit >= 3 and limit.bit_length() <= SIEVE_CAP_BITS
            if "--residue" in argv:
                residue, modulus = int(_argv_value(argv, "--residue")), int(_argv_value(argv, "--modulus"))
                assert 0 < residue < modulus and residue % 2 == 1
        schedule = request.spec.get("schedule")
        if schedule and schedule["kind"] == "custom":
            assert _argv_value(argv, "--schedule") == workloads.schedule_path(
                WORKDIR, seed, schedule["index"])
            assert schedule["exponents"] == customs[schedule["index"]]


def test_custom_schedules_cover_desk_scale():
    for seed in range(20):
        for exps in workloads.custom_exponents("desk-enum", seed):
            assert exps[0] >= 1 and all(a < b for a, b in zip(exps, exps[1:]))
            schedule = oracles.Schedule({"kind": "custom", "exponents": exps})
            # the sumset bound chain needs block index >= 2, and the block
            # above the top one must be defined at every enumerated x
            assert schedule.index(workloads.DESK_X_RANGE[0]) >= 2
            assert len(exps) > schedule.index(workloads.DESK_X_RANGE[1])


def test_paper_chain_timed_requests_stay_below_the_probe_ranges():
    probes = workloads.contract_probes(9)
    for request in _requests("paper-chain", 9):
        if request not in probes:
            assert request.spec["e"] < workloads.PROBE_E_RANGES[0][0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_prefix_spreads_sizes_over_the_range(workload):
    # each request type's first 20 sizes fall one in each twentieth of the
    # log range, give or take a neighbour, whatever the seed
    for seed in (0, 1):
        by_slot: dict = {}
        cycle = workloads.CYCLES[workload]
        for slot, request in zip(itertools.cycle(cycle),
                                 itertools.islice(workloads.requests(workload, seed, WORKDIR),
                                                  20 * len(cycle))):
            spec = request.spec
            size = spec.get("x") or spec.get("e") or spec.get("limit") or spec["grid"][-1]
            by_slot.setdefault(slot, []).append(size)
        lo, hi = {"desk-enum": workloads.DESK_X_RANGE, "paper-chain": workloads.PAPER_E_RANGE,
                  "depolignac-scan": workloads.DEPOLIGNAC_LIMIT_RANGE}[workload]
        for sizes in by_slot.values():
            sizes = sizes[:20]
            bins = {min(19, int(20 * math.log(s / lo) / math.log(hi / lo))) for s in sizes}
            assert len(bins) >= 14


def _brute_members(limit: int, schedule: oracles.Schedule) -> list[int]:
    members = []
    for n in range(1, limit + 1):
        t = schedule.index(n)
        if t >= 1 and n % oracles.modulus(t) == 0:
            members.append(n)
    return members


SCHEDULES = [{"kind": "paper"}, {"kind": "polynomial"},
             {"kind": "custom", "exponents": [1, 3, 7, 12, 20]}]


@pytest.mark.parametrize("spec", SCHEDULES)
def test_oracle_counts_match_brute_force(spec):
    schedule = oracles.Schedule(spec)
    limit = 3000
    members = _brute_members(limit, schedule)
    for x in (1, 2, 15, 16, 100, 511, 512, 999, 2048, limit):
        assert oracles.count_b(x, schedule) == sum(1 for b in members if b <= x)
    x = limit
    top_index = schedule.index(x)
    top, rest = set(), set()
    pairs = 0
    for a in range(1, x.bit_length()):
        for b in members:
            if (1 << a) + b <= x:
                pairs += 1
                (top if schedule.index(b) == top_index else rest).add((1 << a) + b)
    assert oracles.sumset_classes(x, schedule) == (top, rest)
    assert oracles.marks(x, schedule) == pairs


def test_oracle_arithmetic_against_brute_force():
    primes = oracles.odd_primes(4)
    assert primes == (3, 5, 7, 11)
    assert oracles.modulus(4) == 1155
    assert oracles.coprime_count(5000, primes) == sum(
        1 for c in range(1, 5001) if math.gcd(c, 1155) == 1)
    members, found = oracles.progression_exceptions(7, 30, 400)
    assert members == len(range(7, 401, 30))
    assert found[0] == [7, 5, 1]  # 7 = 5 + 2^1


def test_romanov_oracle_against_brute_force():
    limit = 5001
    is_prime = [n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)) for n in range(limit + 1)]
    odd = range(1, limit + 1, 2)
    hits = sum(1 for n in odd if any(is_prime[n - (1 << k)]
                                     for k in range(1, n.bit_length()) if (1 << k) < n))
    assert oracles.romanov_fraction(limit) == hits / len(odd)


def test_self_time_is_duration_minus_children():
    t = tracing.Tracer()

    def leaf(n):
        return sum(range(n))

    leaf_w = t.wrap("arith.leaf", leaf)

    def middle(n):
        return leaf_w(n) + leaf_w(2 * n)

    mid_w = t.wrap("blocks.middle", middle)
    root_w = t.wrap("cli.root", lambda n: mid_w(n) + leaf_w(n))
    t.begin_request(0)
    root_w(20000)
    spans = {s[0]: s for s in t.spans}
    root = next(s for s in t.spans if s[3] == "cli.root")
    assert root[1] is None
    for span_id, parent, request, name, start, end in t.spans:
        assert request == 0
        if parent is not None:
            assert spans[parent][4] <= start <= end <= spans[parent][5]
    layers_total = sum(t.self_time[layer] for layer in ("cli", "blocks", "arith"))
    assert layers_total == pytest.approx(root[5] - root[4], rel=1e-9, abs=1e-12)
    assert t.calls == {"cli": 1, "blocks": 1, "arith": 3}
