"""Reproducible named experiments and their JSON configuration schema.

An experiment is a named, serializable run description: which pipeline to
execute (bounds chain, sumset enumeration, ratio scan, covering audit, or
density scan), over which schedule and grid, under which budgets. This
module only routes: the per-x reports live in ``sumset``, the scans in
``depolignac``, and a run adds the grid loop and the timing. Running
one produces a record whose ``payload`` section is a pure function of the
configuration: byte-identical across repeated runs. Timing lives outside
the payload for exactly that reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .blocks import BlockSet, GrowthSchedule
from .depolignac import (
    CoverCheck,
    CoveringSystem,
    ap_scan,
    crt_combine,
    default_covering_system,
    romanov_density_scan,
)
from .errors import ConfigError, json_int, parse_power_expr, text_name
from .serialize import covering_payload, result_record
from .sumset import DEFAULT_ENUM_BUDGET, bound_chain_point, c_upper_report, ratio_point

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "builtin_experiment",
    "BUILTIN_EXPERIMENTS",
]

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
        if not isinstance(self.name, str):
            raise ConfigError(f"experiment name must be text, got {text_name(self.name)}")
        if not isinstance(self.kind, str) or self.kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind {text_name(self.kind)}")
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
        if not isinstance(budgets, dict):
            raise ConfigError(f"budgets must be an object, got {text_name(budgets)}")
        x_grid = obj.get("x_grid", [])
        if not isinstance(x_grid, list):
            raise ConfigError(f"x_grid must be a list, got {text_name(x_grid)}")
        schedule = obj.get("schedule")
        system = obj.get("system")
        limit = obj.get("limit")
        return cls(
            name=name,
            kind=kind,
            schedule=None if schedule is None else GrowthSchedule.from_json(schedule),
            x_grid=tuple(parse_power_expr(x) for x in x_grid),
            limit=None if limit is None else parse_power_expr(limit),
            k_min=json_int(obj.get("k_min", 1), "k_min"),
            system=None if system is None else CoveringSystem.from_json(system),
            enum_budget=json_int(budgets.get("enumeration", DEFAULT_ENUM_BUDGET), "enumeration"),
        )


def _blocks_for_grid(config: ExperimentConfig) -> BlockSet:
    if config.schedule is None:
        raise ConfigError(f"experiment {text_name(config.name)} needs a schedule")
    if not config.x_grid:
        raise ConfigError(f"experiment {text_name(config.name)} needs a non-empty x_grid")
    # the grid ascends and block_index is monotone, so its last x needs the deepest blocks
    return BlockSet.covering(config.schedule, config.x_grid[-1])


# One grid point per kind. The lambdas look the functions up when called, so a
# wrapper installed on this module's names (a tracer's, say) sees every point.
_GRID_POINTS: dict[str, Callable] = {
    "bounds": lambda x, blocks, budget: bound_chain_point(x, blocks),
    "sumset": lambda x, blocks, budget: c_upper_report(x, blocks, budget),
    "ratio-scan": lambda x, blocks, budget: ratio_point(x, blocks, budget),
}


def _run_grid(config: ExperimentConfig, timing: dict) -> dict:
    blocks = _blocks_for_grid(config)
    point = _GRID_POINTS[config.kind]
    points = []
    for i, x in enumerate(config.x_grid):
        start = time.perf_counter()
        points.append(point(x, blocks, config.enum_budget))
        timing[f"point_{i}"] = time.perf_counter() - start
    return {"schedule": config.schedule.to_json(), "points": points}


def _run_depolignac(config: ExperimentConfig, timing: dict) -> dict:
    if config.limit is None:
        raise ConfigError(f"experiment {text_name(config.name)} needs a limit")
    system = config.system if config.system is not None else default_covering_system()
    start = time.perf_counter()
    cert = crt_combine(system)  # scans the system once, and refuses it unless it covers
    timing["certificate"] = time.perf_counter() - start
    start = time.perf_counter()
    scan = ap_scan(cert, config.limit, config.k_min)
    timing["scan"] = time.perf_counter() - start
    return {
        "covering": covering_payload(system, CoverCheck(covers=True, uncovered=())),
        "certificate": cert,
        "scan": scan,
        "k_min": config.k_min,
    }


def _run_romanov(config: ExperimentConfig, timing: dict) -> dict:
    if config.limit is None:
        raise ConfigError(f"experiment {text_name(config.name)} needs a limit")
    start = time.perf_counter()
    scan = romanov_density_scan(config.limit, config.k_min)
    timing["scan"] = time.perf_counter() - start
    return {"scan": scan, "k_min": config.k_min}


_RUNNERS: dict[str, Callable[[ExperimentConfig, dict], dict]] = {
    **dict.fromkeys(_GRID_POINTS, _run_grid),
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


# Each built-in is built on request, so every caller gets its own config.
BUILTIN_EXPERIMENTS: dict[str, Callable[[], ExperimentConfig]] = {
    "paper-chain": lambda: ExperimentConfig(
        name="paper-chain", kind="bounds", schedule=GrowthSchedule.paper(),
        x_grid=(2**20, 2**100, 2**600, 2**1000)),
    "desk-density": lambda: ExperimentConfig(
        name="desk-density", kind="sumset", schedule=GrowthSchedule.polynomial(),
        x_grid=(10**3, 10**4, 10**5, 10**6)),
    "depolignac-audit": lambda: ExperimentConfig(
        name="depolignac-audit", kind="depolignac", system=default_covering_system(),
        limit=30_000_000, k_min=1),
    "open-question": lambda: ExperimentConfig(
        name="open-question", kind="ratio-scan", schedule=GrowthSchedule.polynomial(),
        x_grid=(10**3, 10**4, 10**5, 10**6)),
}


def builtin_experiment(name: str) -> ExperimentConfig:
    try:
        return BUILTIN_EXPERIMENTS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; built-ins: {', '.join(sorted(BUILTIN_EXPERIMENTS))}"
        ) from None
