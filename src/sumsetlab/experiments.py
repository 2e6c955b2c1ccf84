"""Reproducible named experiments and their JSON configuration schema.

An experiment is a named, serializable run description: which pipeline to
execute (bounds chain, sumset enumeration, ratio scan, covering audit, or
density scan), over which schedule and grid, under which budgets. Running
one produces a record whose ``payload`` section is a pure function of the
configuration: byte-identical across repeated runs. Timing lives outside
the payload for exactly that reason.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Callable

from ._version import __version__
from .arith import PrimeTable, check_chebyshev, sieve_covering_odd
from .blocks import (
    DEFAULT_BIT_BUDGET,
    BlockSet,
    GrowthSchedule,
    block_index,
    conjecture_ratio,
    j_window_check,
)
from .depolignac import (
    CoveringSystem,
    ap_scan,
    covering_verify,
    crt_combine,
    default_covering_system,
    romanov_density_scan,
)
from .errors import CapacityError, ConfigError
from .serialize import covering_payload, fraction_payload, report_payload
from .sumset import (
    DEFAULT_ENUM_BUDGET,
    c_upper_report,
    ratio_scan,
    s1_bound,
    s2_bound,
)

__all__ = [
    "ExperimentConfig",
    "parse_power_expr",
    "run_experiment",
    "builtin_experiment",
    "BUILTIN_EXPERIMENTS",
]

_KINDS = ("bounds", "sumset", "ratio-scan", "depolignac", "romanov")

_EXPR_RE = re.compile(r"^\s*(?:(\d+)|2\^(\d+)|2\^\(2\^(\d+)\))\s*$")


def parse_power_expr(text: str | int) -> int:
    """Parse "12345", "2^k", or "2^(2^k)" into an exact integer.

    Raises:
        ConfigError: the text matches none of the three forms.
        CapacityError: the value would exceed DEFAULT_BIT_BUDGET bits.
    """
    over = f"exceeds the {DEFAULT_BIT_BUDGET}-bit budget"
    if isinstance(text, int):
        if text.bit_length() > DEFAULT_BIT_BUDGET:
            raise CapacityError(f"integer {over}")
        return text
    match = _EXPR_RE.match(str(text))
    if not match:
        raise ConfigError(f"cannot parse integer expression {text!r}")
    decimal, single, tower = match.groups()
    if decimal is not None:
        if len(decimal) > DEFAULT_BIT_BUDGET // 3 + 2:
            raise CapacityError(f"decimal literal {over}")
        value = int(decimal)
        if value.bit_length() > DEFAULT_BIT_BUDGET:
            raise CapacityError(f"decimal literal {over}")
        return value
    if single is not None:
        e = int(single)
        if e >= DEFAULT_BIT_BUDGET:
            raise CapacityError(f"2^{e} {over}")
        return 1 << e
    e = int(tower)
    if e > 60 or (1 << e) >= DEFAULT_BIT_BUDGET:
        raise CapacityError(f"2^(2^{e}) {over}")
    return 1 << (1 << e)


@dataclass(frozen=True)
class ExperimentConfig:
    """Serializable run description for one experiment pipeline.

    x_grid entries and limits accept power expressions in JSON form
    ("2^1000"); they are parsed to exact integers on load.
    """

    name: str
    kind: str
    schedule: GrowthSchedule | None = None
    x_grid: tuple[int, ...] = ()
    limit: int | None = None
    k_min: int = 1
    system: CoveringSystem | None = None
    enum_budget: int = DEFAULT_ENUM_BUDGET

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if any(b <= a for a, b in zip(self.x_grid, self.x_grid[1:])):
            raise ConfigError("x_grid must be strictly ascending")
        if self.enum_budget < 1:
            raise ConfigError("budgets must be positive")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "schedule": None if self.schedule is None else self.schedule.to_json(),
            "x_grid": list(self.x_grid),
            "limit": self.limit,
            "k_min": self.k_min,
            "system": None if self.system is None else self.system.to_json(),
            "budgets": {"enumeration": self.enum_budget},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("experiment config must be a JSON object")
        try:
            name = obj["name"]
            kind = obj["kind"]
        except KeyError as exc:
            raise ConfigError(f"experiment config missing {exc}") from exc
        budgets = obj.get("budgets", {})
        schedule = obj.get("schedule")
        system = obj.get("system")
        limit = obj.get("limit")
        return cls(
            name=name,
            kind=kind,
            schedule=None if schedule is None else GrowthSchedule.from_json(schedule),
            x_grid=tuple(parse_power_expr(x) for x in obj.get("x_grid", ())),
            limit=None if limit is None else parse_power_expr(limit),
            k_min=int(obj.get("k_min", 1)),
            system=None if system is None else CoveringSystem.from_json(system),
            enum_budget=int(budgets.get("enumeration", DEFAULT_ENUM_BUDGET)),
        )


def result_record(name: str, config: dict, payload, timing: dict | None = None) -> dict:
    """The record every run emits; only ``payload`` must be byte-identical across runs."""
    return {
        "name": name,
        "config": config,
        "payload": payload,
        "timing": {} if timing is None else timing,
        "versions": {"sumsetlab": __version__},
    }


def covering_blocks(schedule: GrowthSchedule, x: int) -> tuple[BlockSet, PrimeTable]:
    """Blocks deep enough to answer queries up to x, with the prime table they use."""
    table = sieve_covering_odd(max(block_index(x, schedule), 1))
    return BlockSet.covering(schedule, x, table), table


def _blocks_for_grid(config: ExperimentConfig) -> tuple[BlockSet, PrimeTable]:
    if config.schedule is None:
        raise ConfigError(f"experiment {config.name!r} needs a schedule")
    if not config.x_grid:
        raise ConfigError(f"experiment {config.name!r} needs a non-empty x_grid")
    # the grid ascends and block_index is monotone, so its last x needs the deepest blocks
    return covering_blocks(config.schedule, config.x_grid[-1])


def bound_chain_point(x: int, blocks: BlockSet, table: PrimeTable) -> dict:
    """All analytic checks at one x: window, Chebyshev, count bound, sieve bounds.

    Pure floor/rational arithmetic end to end, so paper-scale x is fine.
    """
    report = conjecture_ratio(x, blocks)
    j = report.j
    point: dict = {
        "x": x,
        "j": j,
        "count": report_payload(report),
        "b_lower_holds": (
            None
            if report.b_lower_bound is None
            else bool(report.b_count >= report.b_lower_bound)
        ),
        "window": None,
        "chebyshev": None,
        "s1_bound": None,
        "s2_bound": None,
        "c_bound": None,
        "sqrt_check": (1 << (2 * j)) <= x,
    }
    if blocks.schedule.kind == "paper" and x >= 4:
        point["window"] = report_payload(j_window_check(x, blocks.schedule))
    if j >= 1:
        point["chebyshev"] = report_payload(check_chebyshev(j, table))
        s1 = s1_bound(x, blocks, table, j=j)
        point["s1_bound"] = fraction_payload(s1)
        if j >= 2:
            s2 = s2_bound(x, blocks, table, j=j)
            point["s2_bound"] = fraction_payload(s2)
            point["c_bound"] = fraction_payload(s1 + s2)
    return point


def _run_bounds(config: ExperimentConfig, timing: dict) -> dict:
    blocks, table = _blocks_for_grid(config)
    points = []
    for i, x in enumerate(config.x_grid):
        start = time.perf_counter()
        points.append(bound_chain_point(x, blocks, table))
        timing[f"point_{i}"] = time.perf_counter() - start
    return {"schedule": config.schedule.to_json(), "points": points}


def _run_sumset(config: ExperimentConfig, timing: dict) -> dict:
    blocks, table = _blocks_for_grid(config)
    points = []
    for x in config.x_grid:
        start = time.perf_counter()
        points.append(report_payload(c_upper_report(x, blocks, table, config.enum_budget)))
        timing[f"x={x}"] = time.perf_counter() - start
    return {"schedule": config.schedule.to_json(), "points": points}


def _run_ratio_scan(config: ExperimentConfig, timing: dict) -> dict:
    blocks, _ = _blocks_for_grid(config)
    start = time.perf_counter()
    points = ratio_scan(config.x_grid, blocks, config.enum_budget)
    timing["scan"] = time.perf_counter() - start
    return {"schedule": config.schedule.to_json(), "points": report_payload(points)}


def _run_depolignac(config: ExperimentConfig, timing: dict) -> dict:
    if config.limit is None:
        raise ConfigError(f"experiment {config.name!r} needs a limit")
    system = config.system if config.system is not None else default_covering_system()
    start = time.perf_counter()
    check = covering_verify(system)
    cert = crt_combine(system)
    timing["certificate"] = time.perf_counter() - start
    start = time.perf_counter()
    scan = ap_scan(cert, config.limit, config.k_min)
    timing["scan"] = time.perf_counter() - start
    return {
        "covering": covering_payload(system, check),
        "certificate": cert.to_json(),
        "scan": report_payload(scan),
        "k_min": config.k_min,
    }


def _run_romanov(config: ExperimentConfig, timing: dict) -> dict:
    if config.limit is None:
        raise ConfigError(f"experiment {config.name!r} needs a limit")
    start = time.perf_counter()
    scan = romanov_density_scan(config.limit, config.k_min)
    timing["scan"] = time.perf_counter() - start
    return {"scan": report_payload(scan), "k_min": config.k_min}


_RUNNERS: dict[str, Callable[[ExperimentConfig, dict], dict]] = {
    "bounds": _run_bounds,
    "sumset": _run_sumset,
    "ratio-scan": _run_ratio_scan,
    "depolignac": _run_depolignac,
    "romanov": _run_romanov,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one experiment and assemble its result record.

    The ``payload`` section depends only on the configuration; ``timing``
    and any other volatile data stay outside it.
    """
    timing: dict = {}
    start = time.perf_counter()
    payload = _RUNNERS[config.kind](config, timing)
    timing["total"] = time.perf_counter() - start
    return result_record(config.name, config.to_json(), payload, timing)


def _paper_chain() -> ExperimentConfig:
    return ExperimentConfig(
        name="paper-chain",
        kind="bounds",
        schedule=GrowthSchedule.paper(),
        x_grid=(2**20, 2**100, 2**600, 2**1000),
    )


def _desk_density() -> ExperimentConfig:
    return ExperimentConfig(
        name="desk-density",
        kind="sumset",
        schedule=GrowthSchedule.polynomial(),
        x_grid=(10**3, 10**4, 10**5, 10**6),
    )


def _depolignac_audit() -> ExperimentConfig:
    return ExperimentConfig(
        name="depolignac-audit",
        kind="depolignac",
        system=default_covering_system(),
        limit=30_000_000,
        k_min=1,
    )


def _open_question() -> ExperimentConfig:
    return ExperimentConfig(
        name="open-question",
        kind="ratio-scan",
        schedule=GrowthSchedule.polynomial(),
        x_grid=(10**3, 10**4, 10**5, 10**6),
    )


BUILTIN_EXPERIMENTS: dict[str, Callable[[], ExperimentConfig]] = {
    "paper-chain": _paper_chain,
    "desk-density": _desk_density,
    "depolignac-audit": _depolignac_audit,
    "open-question": _open_question,
}


def builtin_experiment(name: str) -> ExperimentConfig:
    try:
        return BUILTIN_EXPERIMENTS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; built-ins: {', '.join(sorted(BUILTIN_EXPERIMENTS))}"
        ) from None
