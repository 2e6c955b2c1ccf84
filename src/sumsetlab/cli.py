"""Command-line front end: one subcommand per library operation.

Every run emits a result record with a deterministic ``payload`` section
(stable key order, no timestamps); timing sits outside it. Exit codes:
0 success, 1 usage error, 2 malformed input or configuration, 3 capacity
or budget violation, including a scan limit or covering lcm at or past
2^34 and running out of memory, 4 a failed certified claim or counting
invariant. The error classes carry codes 2 to 4; any other exception is
a bug and ends with its traceback. The enumeration budget can be
overridden with the SUMSETLAB_ENUM_CAP environment variable or a
--budget flag.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ._version import __version__
from .errors import (
    CapacityError,
    ClaimError,
    ConfigError,
    SumsetLabError,
    at_least,
    json_int,
    parse_power_expr,
    text_name,
)

if TYPE_CHECKING:
    from .blocks import GrowthSchedule
    from .depolignac import CoveringSystem


class _UsageError(SumsetLabError):
    exit_code, kind = 1, "usage"


EXIT_OK = 0
EXIT_USAGE = _UsageError.exit_code
EXIT_CONFIG = ConfigError.exit_code
EXIT_CAPACITY = CapacityError.exit_code
EXIT_CLAIM = ClaimError.exit_code
EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for a writer killed by SIGPIPE

ENUM_CAP_ENV = "SUMSETLAB_ENUM_CAP"


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so run_command controls the exit code
    def error(self, message: str):
        raise _UsageError(message)

    # argparse drops an OSError from writing --help or --version; a closed pipe must surface
    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def _integer(text: str) -> int:
    """``json_int`` for every integer option; the handler that uses the value judges it."""
    try:
        return json_int(text, "integer option")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text_name(text)}") from None


def _read_json(value: str, rule: str):
    """The schedule, system or config file at ``value``, which must be a regular file.

    ``rule`` opens the message that refuses any other value, naming the argument;
    an integer literal past the bit budget is refused with CapacityError, and text
    that is not UTF-8, malformed JSON and JSON nested too deeply to parse with ConfigError.
    """
    import json

    path = Path(value)
    try:
        regular = path.is_file()
    except OSError:  # a name too long for the file system, say: no file by that name
        regular = False
    if not regular:
        raise ConfigError(f"{rule}, got {text_name(value)}")
    try:
        return json.loads(path.read_text(),
                          parse_int=functools.partial(json_int, what="integer literal"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(str(exc)) from None


def _schedule_from_arg(value: str) -> GrowthSchedule:
    from .blocks import GrowthSchedule

    if value in ("paper", "polynomial"):
        return GrowthSchedule(value)
    rule = "--schedule must be 'paper', 'polynomial' or a JSON file"
    return GrowthSchedule.from_json(_read_json(value, rule))


def _system_from_arg(value: str | None) -> CoveringSystem:
    from .depolignac import CoveringSystem, default_covering_system

    if value is None:
        return default_covering_system()
    return CoveringSystem.from_json(_read_json(value, "--system must be a JSON file"))


def _enum_budget(args: argparse.Namespace) -> int:
    from .sumset import DEFAULT_ENUM_BUDGET

    budget = args.budget
    if budget is None:
        env = os.environ.get(ENUM_CAP_ENV)
        if env is None:
            return DEFAULT_ENUM_BUDGET
        budget = json_int(env, ENUM_CAP_ENV)
    if budget < 1:
        raise ConfigError("budgets must be positive")
    return budget


# Each handler imports the layers it runs, so starting the CLI loads none of them.


def _record_at_x(name: str, args, point) -> dict:
    """The record of ``point(x, blocks)`` at --x on the --schedule block set covering it.

    A command with --budget (sumset) passes its enumeration budget on as a third argument.
    """
    from .blocks import BlockSet
    from .serialize import result_record

    schedule = _schedule_from_arg(args.schedule)
    x = parse_power_expr(args.x)
    budget = {"budget": _enum_budget(args)} if "budget" in args else {}
    config = {"schedule": schedule.to_json(), "x": x, **budget}
    return result_record(name, config, point(x, BlockSet.covering(schedule, x), *budget.values()))


def _cmd_count_b(args) -> dict:
    from .blocks import conjecture_ratio

    return _record_at_x("count-b", args, conjecture_ratio)


def _cmd_bounds(args) -> dict:
    from .sumset import bound_chain_point

    return _record_at_x("bounds", args, bound_chain_point)


def _cmd_sumset(args) -> dict:
    from .sumset import c_upper_report

    return _record_at_x("sumset", args, c_upper_report)


def _cmd_ratio_scan(args) -> dict:
    from .experiments import ExperimentConfig, run_experiment

    schedule = _schedule_from_arg(args.schedule)
    grid = tuple(parse_power_expr(part) for part in args.grid.split(","))
    return run_experiment(ExperimentConfig(
        name="ratio-scan", kind="ratio-scan", schedule=schedule,
        x_grid=grid, enum_budget=_enum_budget(args),
    ))


def _cmd_sieve_count(args) -> dict:
    from .arith import sieve_primes
    from .serialize import result_record

    limit = parse_power_expr(args.limit)
    table = sieve_primes(limit)
    payload = {
        "limit": limit,
        "prime_count": table.odd_count + 1,
        "largest_prime": table.largest_prime,
        "odd_count": table.odd_count,
    }
    return result_record("sieve-count", {"limit": limit}, payload)


def _cmd_mertens(args) -> dict:
    from .arith import mertens_product, primorial_primes
    from .serialize import result_record

    # the product is prod (p - 1) / d_j, so j is held to the block moduli's bit budget
    product = mertens_product(primorial_primes(at_least("j", args.j, 1)),
                              include_two=args.include_two)
    payload = {
        "j": args.j,
        "include_two": args.include_two,
        "product": product,
        "value": float(product),
    }
    return result_record("mertens", {"j": args.j, "include_two": args.include_two}, payload)


def _cmd_chebyshev(args) -> dict:
    from .arith import check_chebyshev, first_odd_primes
    from .serialize import result_record

    check = check_chebyshev(first_odd_primes(at_least("j", args.j, 1)))
    return result_record("chebyshev", {"j": args.j}, {"j": args.j, **check._asdict()})


def _cmd_covering_verify(args) -> dict:
    from .depolignac import covering_verify
    from .serialize import covering_payload, result_record

    system = _system_from_arg(args.system)
    payload = covering_payload(system, covering_verify(system))
    return result_record("covering-verify", {"system": system}, payload)


def _cmd_covering_crt(args) -> dict:
    from .depolignac import crt_combine
    from .serialize import result_record

    system = _system_from_arg(args.system)
    return result_record("covering-crt", {"system": system}, crt_combine(system))


def _cmd_depolignac_scan(args) -> dict:
    from .depolignac import APCertificate, ap_scan, crt_combine
    from .serialize import result_record

    limit = parse_power_expr(args.limit)
    if args.residue is not None or args.modulus is not None:
        if args.residue is None or args.modulus is None:
            raise ConfigError("--residue and --modulus must be given together")
        if args.system is not None:
            raise ConfigError("--system cannot be combined with --residue/--modulus")
        cert = APCertificate(residue=args.residue, modulus=args.modulus)
    else:
        cert = crt_combine(_system_from_arg(args.system))
    certificate = {"residue": cert.residue, "modulus": cert.modulus}
    scan = ap_scan(cert, limit, args.k_min)
    payload = {"certificate": certificate, "scan": scan, "k_min": args.k_min}
    config = {**certificate, "limit": limit, "k_min": args.k_min}
    return result_record("depolignac-scan", config, payload)


def _cmd_romanov_density(args) -> dict:
    from .depolignac import romanov_density_scan
    from .serialize import result_record

    limit = parse_power_expr(args.limit)
    payload = {"scan": romanov_density_scan(limit, args.k_min), "k_min": args.k_min}
    return result_record("romanov-density", {"limit": limit, "k_min": args.k_min}, payload)


def _cmd_experiment_list(args) -> dict:
    from .experiments import BUILTIN_EXPERIMENTS
    from .serialize import result_record

    return result_record("experiment-list", {}, {"experiments": sorted(BUILTIN_EXPERIMENTS)})


def _cmd_experiment_run(args) -> dict:
    import dataclasses

    from .experiments import (
        BUILTIN_EXPERIMENTS,
        ExperimentConfig,
        builtin_experiment,
        run_experiment,
    )

    target = args.target
    if target in BUILTIN_EXPERIMENTS:
        config = builtin_experiment(target)
    else:
        rule = "experiment run takes a built-in experiment or a JSON file"
        config = ExperimentConfig.from_json(_read_json(target, rule))
    if args.budget is not None or ENUM_CAP_ENV in os.environ:
        config = dataclasses.replace(config, enum_budget=_enum_budget(args))
    return run_experiment(config)


def _handler(command: str):
    """``_cmd_depolignac_scan`` for "depolignac scan"; looked up per run, not bound at build."""
    return globals()["_cmd_" + command.replace(" ", "_").replace("-", "_")]


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="sumsetlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sumsetlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    output, at_x, budget, system, scan, j = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    output.add_argument("--out", help="write the record to this path instead of stdout")
    output.add_argument("--format", choices=("json", "csv"), default="json")
    at_x.add_argument("--schedule", required=True)
    at_x.add_argument("--x", required=True)
    budget.add_argument("--budget", type=_integer)
    system.add_argument("--system", help="JSON file; defaults to the shipped system")
    scan.add_argument("--limit", required=True)
    scan.add_argument("--k-min", type=_integer, default=1)
    j.add_argument("--j", type=_integer, required=True)

    def add(subparsers, name: str, help_text: str, *parents) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, help=help_text, parents=[output, *parents])

    add(sub, "count-b", "exact block-set count at x", at_x)
    add(sub, "bounds", "analytic bound chain at x (no enumeration)", at_x)
    add(sub, "sumset", "enumerate the sumset at x with the bound chain", at_x, budget)

    p = add(sub, "ratio-scan", "c/b count ratios over a grid", budget)
    p.add_argument("--schedule", required=True)
    p.add_argument("--grid", required=True, help="comma-separated x expressions")

    p = add(sub, "sieve-count", "count primes up to a limit")
    p.add_argument("--limit", required=True)

    p = add(sub, "mertens", "exact odd-prime product of (1 - 1/p)", j)
    p.add_argument("--include-two", action="store_true")
    add(sub, "chebyshev", "odd-prime log sum vs 2*j*log(j)", j)

    cov = sub.add_parser("covering", help="covering-system operations")
    cov_sub = cov.add_subparsers(dest="action", required=True)
    add(cov_sub, "verify", "check that a residue system covers", system)
    add(cov_sub, "crt", "combine a covering system into a certificate", system)

    dep = sub.add_parser("depolignac", help="progression representation audits")
    dep_sub = dep.add_subparsers(dest="action", required=True)
    p = add(dep_sub, "scan", "audit an arithmetic progression up to a limit", system, scan)
    p.add_argument("--residue", type=_integer)
    p.add_argument("--modulus", type=_integer)
    add(sub, "romanov-density", "density of odd n = p + 2^k", scan)

    exp = sub.add_parser("experiment", help="named reproducible experiments")
    exp_sub = exp.add_subparsers(dest="action", required=True)
    p = add(exp_sub, "run", "run a built-in experiment or a config file", budget)
    p.add_argument("target")
    add(exp_sub, "list", "list built-in experiments")

    return parser


def _write(record: dict, args: argparse.Namespace) -> None:
    from .serialize import payload_csv, payload_json

    text = payload_csv(record["payload"]) if args.format == "csv" else payload_json(record)
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except ValueError as exc:  # a path holding a NUL byte, refused before any system call
            raise ConfigError(str(exc)) from None
    else:
        sys.stdout.write(text)


def run_command(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    command = "sumsetlab"  # until the arguments name the subcommand
    try:
        args = build_parser().parse_args(list(argv))
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        started = time.perf_counter()
        record = _handler(command)(args)
        record["timing"]["total"] = time.perf_counter() - started
        _write(record, args)
    except SumsetLabError as exc:
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except BrokenPipeError:  # the reader closed stdout, also under --help: end quietly
        return EXIT_BROKEN_PIPE
    except MemoryError:
        print(f"capacity error: {command} ran out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:  # a closed stdout pipe (BrokenPipeError) is caught first
        message = str(exc)
        if exc.filename is not None:  # as str(exc), path shortened
            message = f"[Errno {exc.errno}] {exc.strerror}: {text_name(exc.filename)}"
        print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main() -> None:
    code = run_command(sys.argv[1:])
    try:
        sys.stdout.flush()  # a buffered record meets a closed pipe here rather than at exit
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # the interpreter flushes stdout again at exit: let that flush go to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
