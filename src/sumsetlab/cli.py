"""Command-line front end: one subcommand per library operation.

Every run emits a result record with a deterministic ``payload`` section
(stable key order, no timestamps); timing sits outside it. Exit codes:
0 success, 1 usage error, 2 malformed input or configuration, 3 capacity
or budget violation, including a scan limit at or past 2^34 and running
out of memory. The enumeration budget can be overridden with the
SUMSETLAB_ENUM_CAP environment variable or a --budget flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from ._version import __version__
from .arith import check_chebyshev, mertens_product, sieve_covering_odd, sieve_primes
from .blocks import (
    DEFAULT_BIT_BUDGET,
    BlockSet,
    GrowthSchedule,
    block_index,
    conjecture_ratio,
)
from .depolignac import (
    APCertificate,
    CoveringSystem,
    ap_scan,
    covering_verify,
    crt_combine,
    default_covering_system,
    romanov_density_scan,
)
from .errors import (
    CapacityError,
    ConfigError,
    CRTError,
    InapplicableError,
    MalformedSystemError,
    NotCoveringError,
)
from .experiments import (
    ExperimentConfig,
    BUILTIN_EXPERIMENTS,
    bound_chain_point,
    builtin_experiment,
    parse_power_expr,
    run_experiment,
)
from .serialize import (
    block_count_payload,
    certificate_payload,
    covering_payload,
    fraction_payload,
    payload_csv,
    payload_json,
    scan_payload,
    sumset_payload,
)
from .sumset import DEFAULT_ENUM_BUDGET, c_upper_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3

ENUM_CAP_ENV = "SUMSETLAB_ENUM_CAP"

_CONFIG_ERRORS = (
    ConfigError,
    InapplicableError,
    MalformedSystemError,
    NotCoveringError,
    CRTError,
    ValueError,
    json.JSONDecodeError,
    OSError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so run_command controls the exit code
    def error(self, message: str):
        raise _UsageError(message)


def _schedule_from_arg(value: str) -> GrowthSchedule:
    if value in ("paper", "polynomial"):
        return GrowthSchedule(value)
    path = Path(value)
    if not path.exists():
        raise ConfigError(
            f"schedule must be 'paper', 'polynomial', or a JSON file path; got {value!r}"
        )
    return GrowthSchedule.from_json(json.loads(path.read_text()))


def _system_from_arg(value: str | None) -> CoveringSystem:
    if value is None:
        return default_covering_system()
    return CoveringSystem.from_json(json.loads(Path(value).read_text()))


def _enum_budget(args: argparse.Namespace) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(ENUM_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENUM_CAP_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_ENUM_BUDGET


def _record(name: str, config: dict, payload, started: float) -> dict:
    return {
        "name": name,
        "config": config,
        "payload": payload,
        "timing": {"total": time.perf_counter() - started},
        "versions": {"sumsetlab": __version__},
    }


def _blocks_for(schedule: GrowthSchedule, x: int) -> tuple[BlockSet, "PrimeTable"]:
    j = max(block_index(x, schedule), 1)
    table = sieve_covering_odd(j)
    return BlockSet.materialize(schedule, j, table), table


def _cmd_count_b(args) -> dict:
    started = time.perf_counter()
    schedule = _schedule_from_arg(args.schedule)
    x = parse_power_expr(args.x)
    blocks, _ = _blocks_for(schedule, x)
    payload = block_count_payload(conjecture_ratio(x, blocks))
    config = {"schedule": schedule.to_json(), "x": x}
    return _record("count-b", config, payload, started)


def _cmd_bounds(args) -> dict:
    started = time.perf_counter()
    schedule = _schedule_from_arg(args.schedule)
    x = parse_power_expr(args.x)
    blocks, table = _blocks_for(schedule, x)
    payload = bound_chain_point(x, blocks, table)
    config = {"schedule": schedule.to_json(), "x": x}
    return _record("bounds", config, payload, started)


def _cmd_sumset(args) -> dict:
    started = time.perf_counter()
    schedule = _schedule_from_arg(args.schedule)
    x = parse_power_expr(args.x)
    budget = _enum_budget(args)
    blocks, table = _blocks_for(schedule, x)
    payload = sumset_payload(c_upper_report(x, blocks, table, budget))
    config = {"schedule": schedule.to_json(), "x": x, "budget": budget}
    return _record("sumset", config, payload, started)


def _cmd_ratio_scan(args) -> dict:
    started = time.perf_counter()
    schedule = _schedule_from_arg(args.schedule)
    grid = tuple(parse_power_expr(part) for part in args.grid.split(","))
    budget = _enum_budget(args)
    config = ExperimentConfig(
        name="ratio-scan", kind="ratio-scan", schedule=schedule,
        x_grid=grid, enum_budget=budget,
    )
    record = run_experiment(config)
    record["timing"]["total"] = time.perf_counter() - started
    return record


def _cmd_sieve_count(args) -> dict:
    started = time.perf_counter()
    limit = parse_power_expr(args.limit)
    table = sieve_primes(limit)
    payload = {
        "limit": limit,
        "prime_count": table.odd_count + 1,
        "largest_prime": table.largest_prime,
        "odd_count": table.odd_count,
    }
    return _record("sieve-count", {"limit": limit}, payload, started)


def _cmd_mertens(args) -> dict:
    started = time.perf_counter()
    table = sieve_covering_odd(args.j)
    product = mertens_product(args.j, table, include_two=args.include_two)
    payload = {
        "j": args.j,
        "include_two": args.include_two,
        "product": fraction_payload(product),
        "value": float(product),
    }
    config = {"j": args.j, "include_two": args.include_two}
    return _record("mertens", config, payload, started)


def _cmd_chebyshev(args) -> dict:
    started = time.perf_counter()
    table = sieve_covering_odd(args.j)
    check = check_chebyshev(args.j, table)
    payload = {
        "j": args.j,
        "theta": check.theta,
        "bound": check.bound,
        "holds": check.holds,
    }
    return _record("chebyshev", {"j": args.j}, payload, started)


def _cmd_covering_verify(args) -> dict:
    started = time.perf_counter()
    system = _system_from_arg(args.system)
    payload = covering_payload(system, covering_verify(system))
    return _record("covering-verify", {"system": system.to_json()}, payload, started)


def _cmd_covering_crt(args) -> dict:
    started = time.perf_counter()
    system = _system_from_arg(args.system)
    payload = certificate_payload(crt_combine(system))
    return _record("covering-crt", {"system": system.to_json()}, payload, started)


def _cmd_depolignac_scan(args) -> dict:
    started = time.perf_counter()
    limit = parse_power_expr(args.limit)
    if args.residue is not None or args.modulus is not None:
        if args.residue is None or args.modulus is None:
            raise ConfigError("--residue and --modulus must be given together")
        cert = APCertificate(residue=args.residue, modulus=args.modulus)
    else:
        cert = crt_combine(_system_from_arg(args.system))
    scan = ap_scan(cert, limit, args.k_min)
    payload = {
        "certificate": {"residue": cert.residue, "modulus": cert.modulus},
        "scan": scan_payload(scan),
        "k_min": args.k_min,
    }
    config = {
        "residue": cert.residue,
        "modulus": cert.modulus,
        "limit": limit,
        "k_min": args.k_min,
    }
    return _record("depolignac-scan", config, payload, started)


def _cmd_romanov_density(args) -> dict:
    started = time.perf_counter()
    limit = parse_power_expr(args.limit)
    scan = romanov_density_scan(limit, args.k_min)
    payload = {"scan": scan_payload(scan), "k_min": args.k_min}
    config = {"limit": limit, "k_min": args.k_min}
    return _record("romanov-density", config, payload, started)


def _cmd_experiment(args) -> dict:
    if args.action == "list":
        started = time.perf_counter()
        payload = {"experiments": sorted(BUILTIN_EXPERIMENTS)}
        return _record("experiment-list", {}, payload, started)
    target = args.target
    if target is None:
        raise ConfigError("experiment run needs a name or config path")
    if target in BUILTIN_EXPERIMENTS:
        config = builtin_experiment(target)
    else:
        path = Path(target)
        if not path.exists():
            raise ConfigError(f"no such experiment or config file: {target!r}")
        config = ExperimentConfig.from_json(json.loads(path.read_text()))
    if getattr(args, "budget", None) is not None or ENUM_CAP_ENV in os.environ:
        import dataclasses

        config = dataclasses.replace(config, enum_budget=_enum_budget(args))
    return run_experiment(config)


def build_parser() -> _Parser:
    parser = _Parser(prog="sumsetlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sumsetlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the record to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("count-b", _cmd_count_b, help="exact block-set count at x")
    p.add_argument("--schedule", required=True)
    p.add_argument("--x", required=True)

    p = add("bounds", _cmd_bounds, help="analytic bound chain at x (no enumeration)")
    p.add_argument("--schedule", required=True)
    p.add_argument("--x", required=True)

    p = add("sumset", _cmd_sumset, help="enumerate the sumset at x with the bound chain")
    p.add_argument("--schedule", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--budget", type=int)

    p = add("ratio-scan", _cmd_ratio_scan, help="c/b count ratios over a grid")
    p.add_argument("--schedule", required=True)
    p.add_argument("--grid", required=True, help="comma-separated x expressions")
    p.add_argument("--budget", type=int)

    p = add("sieve-count", _cmd_sieve_count, help="count primes up to a limit")
    p.add_argument("--limit", required=True)

    p = add("mertens", _cmd_mertens, help="exact odd-prime product of (1 - 1/p)")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--include-two", action="store_true")

    p = add("chebyshev", _cmd_chebyshev, help="odd-prime log sum vs 2*j*log(j)")
    p.add_argument("--j", type=int, required=True)

    cov = sub.add_parser("covering", help="covering-system operations")
    cov_sub = cov.add_subparsers(dest="action", required=True)
    p = cov_sub.add_parser("verify", help="check that a residue system covers")
    p.set_defaults(handler=_cmd_covering_verify)
    p.add_argument("--system", help="JSON file; defaults to the shipped system")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p = cov_sub.add_parser("crt", help="combine a covering system into a certificate")
    p.set_defaults(handler=_cmd_covering_crt)
    p.add_argument("--system")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    dep = sub.add_parser("depolignac", help="progression representation audits")
    dep_sub = dep.add_subparsers(dest="action", required=True)
    p = dep_sub.add_parser("scan", help="audit an arithmetic progression up to a limit")
    p.set_defaults(handler=_cmd_depolignac_scan)
    p.add_argument("--system", help="JSON file; defaults to the shipped system")
    p.add_argument("--residue", type=int)
    p.add_argument("--modulus", type=int)
    p.add_argument("--limit", required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("romanov-density", _cmd_romanov_density, help="density of odd n = p + 2^k")
    p.add_argument("--limit", required=True)
    p.add_argument("--k-min", type=int, default=1)

    exp = sub.add_parser("experiment", help="named reproducible experiments")
    exp_sub = exp.add_subparsers(dest="action", required=True)
    p = exp_sub.add_parser("run", help="run a built-in experiment or a config file")
    p.set_defaults(handler=_cmd_experiment)
    p.add_argument("target")
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p = exp_sub.add_parser("list", help="list built-in experiments")
    p.set_defaults(handler=_cmd_experiment, target=None)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _write(record: dict, args: argparse.Namespace) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        payload = record["payload"]
        if isinstance(payload, dict) and "points" in payload:
            payload = payload["points"]
        text = payload_csv(payload)
    else:
        text = payload_json(record)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def run_command(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        record = args.handler(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        print(f"capacity error: {command} ran out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write(record, args)
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
