"""Seeded request generators for the three benchmark workloads.

A workload is an endless stream of CLI requests. Request types follow a
fixed cycle in the workload's proportions. The k-th request of a type
takes its size (log-uniform over the workload's range) and its other
draws, such as the schedule, from the k-th point of a Halton sequence,
rotated by a random offset drawn from the seed. Every prefix of such a
sequence covers the size range almost evenly, so the latency quantiles of
a run of any length follow the size distribution itself: two seeds send
different inputs but measure the same mix.

The program under test only ever sees ``Request.argv``; ``Request.spec``
holds the parsed parameters the oracles check the output against. This
module imports nothing from ``sumsetlab``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

WORKLOADS: dict[str, str] = {  # name -> why, as in BENCHMARK.json (all but paper-chain)
    "desk-enum": (
        "sumset and ratio-scan at x in 1e6..1e8 on paper, polynomial and "
        "custom schedules: the sumset bitmap sets latency and peak RSS"
    ),
    "paper-chain": (
        "count-b and bounds at x = 2^e, e in 20..13000: big-int block, "
        "bound and serialization work plus CLI overhead, no enumeration"
    ),
    "depolignac-scan": (
        "progression scans, Romanov density and prime counts to 1e6..5e7: "
        "the prime sieve and the scans do the work, sumset and blocks idle"
    ),
}

# Enumeration sizes stay inside the default enumeration budget (10^8).
DESK_X_RANGE = (10**6, 10**8)
# Exponents of x = 2^e. The CLI advertises 10^6 bits, but at the commit
# that introduced this benchmark every request with e >= ~13,700 fails
# (int->str digit limit past ~2^14284, and the paper schedule's top
# boundary past 2^65536). Timed requests stay below that; the failing
# range is sent by contract_probes() in traced runs and by baseline.py.
PAPER_E_RANGE = (20, 13_000)
DEPOLIGNAC_LIMIT_RANGE = (10**6, 5 * 10**7)
ERDOS_MODULUS = 11_184_810

# Ranges the contract probes draw from: 2^e past the int->str limit but
# below the paper schedule's fifth boundary (exit 2 today), and past that
# boundary (exit 3 today).
PROBE_E_RANGES = ((14_300, 65_536), (65_536, 1_000_000))

SCHEDULE_KINDS = ("paper", "polynomial", "custom")
N_CUSTOM_SCHEDULES = 6

# Request types in their proportions: 7:3, 1:1:1:1 and 2:2:1:1.
CYCLES: dict[str, tuple] = {
    "desk-enum": ("sumset", "sumset", "ratio-scan", "sumset", "sumset", "ratio-scan",
                  "sumset", "sumset", "ratio-scan", "sumset"),
    "paper-chain": (("count-b", "paper"), ("bounds", "polynomial"),
                    ("count-b", "polynomial"), ("bounds", "paper")),
    "depolignac-scan": ("depolignac-cert", "depolignac-residue", "romanov-density",
                        "depolignac-cert", "depolignac-residue", "sieve-count"),
}
# Halton bases: size, then schedule (desk-enum), grid step and grid length.
HALTON_BASES = (2, 3, 5, 7)


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus the parameters its oracle needs."""

    kind: str
    argv: tuple[str, ...]
    spec: dict = field(compare=False)


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def _radical_inverse(k: int, base: int) -> float:
    inverse, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inverse += digit * scale
        scale /= base
    return inverse


class _HaltonStream:
    """Successive Halton points, rotated by a seeded offset per dimension."""

    def __init__(self, rng: random.Random) -> None:
        self.offsets = [rng.random() for _ in HALTON_BASES]
        self.k = 0

    def next(self) -> list[float]:
        self.k += 1
        return [(_radical_inverse(self.k, b) + o) % 1.0
                for b, o in zip(HALTON_BASES, self.offsets)]


def _log_size(u: float, lo: int, hi: int) -> int:
    return int(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u))


def custom_exponents(workload: str, seed: int) -> list[list[int]]:
    """Seeded custom growth schedules: polynomial-like, perturbed per block."""
    rng = _rng(workload, seed, "custom")
    schedules = []
    for _ in range(N_CUSTOM_SCHEDULES):
        exps = [rng.randint(1, 2)]
        t = 1
        while exps[-1] <= 40:
            t += 1
            exps.append(max(exps[-1] + 1, t * t + rng.randint(-(t - 1), t - 1)))
        schedules.append(exps)
    return schedules


def schedule_path(workdir: str, seed: int, index: int) -> str:
    return f"{workdir}/custom-{seed}-{index}.json"


def write_custom_schedules(workload: str, seed: int, workdir: str) -> None:
    """Write this seed's custom schedules where the requests point to them."""
    Path(workdir).mkdir(parents=True, exist_ok=True)
    for i, exps in enumerate(custom_exponents(workload, seed)):
        spec = {"kind": "custom", "exponents": exps}
        Path(schedule_path(workdir, seed, i)).write_text(json.dumps(spec))


def _desk_request(kind: str, point, rng, seed: int, workdir: str) -> Request:
    x = _log_size(point[0], *DESK_X_RANGE)
    sched_kind = SCHEDULE_KINDS[int(point[1] * len(SCHEDULE_KINDS))]
    if sched_kind == "custom":
        index = rng.randrange(N_CUSTOM_SCHEDULES)
        schedule = {"kind": "custom", "index": index,
                    "exponents": custom_exponents("desk-enum", seed)[index]}
        sched_arg = schedule_path(workdir, seed, index)
    else:
        schedule = {"kind": sched_kind}
        sched_arg = sched_kind
    if kind == "sumset":
        return Request(kind, ("sumset", "--schedule", sched_arg, "--x", str(x)),
                       {"schedule": schedule, "x": x})
    step = 4.0 + 6.0 * point[2]
    grid = sorted(int(x / step**k) for k in range(3 + int(2 * point[3])))
    argv = ("ratio-scan", "--schedule", sched_arg, "--grid", ",".join(map(str, grid)))
    return Request(kind, argv, {"schedule": schedule, "grid": grid})


def _paper_request(slot: tuple, point) -> Request:
    command, sched = slot
    e = _log_size(point[0], *PAPER_E_RANGE)
    return Request(command, (command, "--schedule", sched, "--x", f"2^{e}"),
                   {"schedule": {"kind": sched}, "e": e})


def _depolignac_request(kind: str, point, rng) -> Request:
    limit = _log_size(point[0], *DEPOLIGNAC_LIMIT_RANGE)
    spec = {"limit": limit}
    if kind == "depolignac-cert":
        argv = ("depolignac", "scan", "--limit", str(limit))
    elif kind == "depolignac-residue":
        residue = 2 * rng.randrange(ERDOS_MODULUS // 2) + 1
        spec.update(residue=residue, modulus=ERDOS_MODULUS)
        argv = ("depolignac", "scan", "--residue", str(residue),
                "--modulus", str(ERDOS_MODULUS), "--limit", str(limit))
    else:
        argv = (kind, "--limit", str(limit))
    return Request(kind, argv, spec)


def _make(workload: str, slot, point, rng, seed: int, workdir: str) -> Request:
    if workload == "desk-enum":
        return _desk_request(slot, point, rng, seed, workdir)
    if workload == "paper-chain":
        return _paper_request(slot, point)
    return _depolignac_request(slot, point, rng)


def requests(workload: str, seed: int, workdir: str) -> Iterator[Request]:
    """The workload's request stream; the same (workload, seed) repeats it exactly."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = _rng(workload, seed, "requests")
    cycle = CYCLES[workload]
    streams = {slot: _HaltonStream(rng) for slot in dict.fromkeys(cycle)}
    while True:
        for slot in cycle:
            yield _make(workload, slot, streams[slot].next(), rng, seed, workdir)


def _peak_request(workload: str) -> Request:
    """The workload's most memory-hungry request, at the top of its range."""
    if workload == "desk-enum":
        x = DESK_X_RANGE[1]
        return Request("sumset", ("sumset", "--schedule", "paper", "--x", str(x)),
                       {"schedule": {"kind": "paper"}, "x": x})
    if workload == "paper-chain":
        e = PAPER_E_RANGE[1] - 1
        return Request("bounds", ("bounds", "--schedule", "polynomial", "--x", f"2^{e}"),
                       {"schedule": {"kind": "polynomial"}, "e": e})
    limit = DEPOLIGNAC_LIMIT_RANGE[1]
    return Request("romanov-density", ("romanov-density", "--limit", str(limit)),
                   {"limit": limit})


def warmup(workload: str, seed: int, workdir: str) -> list[Request]:
    """Untimed requests sent before the stream: each request type (and
    schedule kind) at the bottom of the range, which loads every code path,
    and the largest request of the range, so that peak RSS is the
    high-water mark of the range rather than of the sizes one seed draws."""
    rng = _rng(workload, seed, "warmup")
    warm = []
    for slot in dict.fromkeys(CYCLES[workload]):
        if workload == "desk-enum":
            for i in range(len(SCHEDULE_KINDS)):
                point = (0.0, (i + 0.5) / len(SCHEDULE_KINDS), 0.5, 0.5)
                warm.append(_desk_request(slot, point, rng, seed, workdir))
        else:
            warm.append(_make(workload, slot, (0.0,), rng, seed, workdir))
    return [*warm, _peak_request(workload)]


def contract_probes(seed: int) -> list[Request]:
    """count-b requests in the advertised range that fail at the parent commit."""
    rng = _rng("paper-chain", seed, "probes")
    probes = []
    for lo, hi in PROBE_E_RANGES:
        e = _log_size(rng.random(), lo, hi)
        argv = ("count-b", "--schedule", "paper", "--x", f"2^{e}")
        probes.append(Request("count-b", argv, {"schedule": {"kind": "paper"}, "e": e}))
    return probes
