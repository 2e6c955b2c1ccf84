import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    BlockSet,
    CoveringSystem,
    GrowthSchedule,
    bound_chain_point,
    cli,
    conjecture_ratio,
    count_b,
    crt_combine,
    default_covering_system,
    first_odd_primes,
    mertens_product,
)
from sumsetlab.cli import (EXIT_CAPACITY, EXIT_CLAIM, EXIT_CONFIG, EXIT_OK, EXIT_USAGE,
                           run_command)
from sumsetlab.errors import (
    MAX_DECIMAL_DIGITS,
    CapacityError,
    ClaimError,
    ConfigError,
    json_int,
    parse_power_expr,
    text_int,
)
from sumsetlab.experiments import (
    BUILTIN_EXPERIMENTS,
    ExperimentConfig,
    builtin_experiment,
    run_experiment,
)
from reference_encoder import fraction_payload, report_payload
from sumsetlab.serialize import int_decimal, payload_csv, payload_json, result_record


def loads(text: str):
    """JSON text read back with integer literals of any size, as the CLI reads its files."""
    return json.loads(text, parse_int=functools.partial(json_int, what="integer literal"))


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    return loads(out)


def written(record: dict) -> dict:
    """``record`` as the CLI writes it in JSON, read back."""
    return loads(payload_json(record))


def rational(obj: dict) -> Fraction:
    """The Fraction a {"num", "den"} pair of JSON strings spells."""
    return Fraction(text_int(obj["num"], "num"), text_int(obj["den"], "den"))


def leaf_parsers(parser, path=()):
    """(command path, parser) for every leaf subcommand under ``parser``."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return [(" ".join(path), parser)]
    choices = actions[0].choices.items()
    return [leaf for name, sub in choices for leaf in leaf_parsers(sub, (*path, name))]


LEAVES = leaf_parsers(cli.build_parser())
LONG = "a" * 5000
# every value a JSON document can hold, with integer text among the strings
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.integers().map(str) | st.from_regex(r"\s*[+-]?\d[\d_]*\s*", fullmatch=True),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)


def int_reads(value) -> bool:
    """Whether ``value`` is an int, or a str that int() turns into one."""
    if type(value) is int:
        return True
    if type(value) is not str:
        return False
    try:
        int(value)
    except ValueError:
        return False
    return True


class TestJsonInt:
    @given(JSON_VALUES)
    def test_an_int_or_integer_text_and_nothing_else(self, value):
        if int_reads(value):
            assert json_int(value, "field") == int(value)
            return
        with pytest.raises(ConfigError) as caught:
            json_int(value, "field")
        assert type(caught.value) is ConfigError
        assert len(str(caught.value)) < 200, str(caught.value)


class TestParsePowerExpr:
    @pytest.mark.parametrize(
        "text,expected",
        [("2^20", 1048576), ("2^(2^4)", 65536), ("12345", 12345), (" 2^3 ", 8)],
    )
    def test_valid_forms(self, text, expected):
        assert parse_power_expr(text) == expected

    @pytest.mark.parametrize(
        "text", ["banana", "2^", "2^(3^4)", "-5", "2^2^2", True, False, 1.5, None, [1], {"a": 1}]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_power_expr(text)

    def test_bit_budget(self):
        # digits past MAX_DECIMAL_DIGITS are refused before int() reads them, in any form;
        # an exponent is named by its size, so no message spells out 5001 digits
        long, ones = "9" * (MAX_DECIMAL_DIGITS + 1), "1" * 5001
        for text in ("2^1000000", "2^(2^20)", "2^(2^30)", "2^(2^99999999999999)",
                     long, f"2^{long}", f"2^(2^{long})", f"2^{ones}", f"2^(2^{ones})"):
            with pytest.raises(CapacityError) as refused:
                parse_power_expr(text)
            assert len(str(refused.value)) < 200
        with pytest.raises(CapacityError, match=r"^2\^e with e of 16610 bits exceeds"):
            parse_power_expr(f"2^{ones}")
        with pytest.raises(CapacityError, match=r"^decimal literal of 333336 digits exceeds "
                                                r"the 1000000-bit budget$"):
            parse_power_expr(f"2^(2^{long})")
        assert parse_power_expr("2^999999") == 1 << 999999
        # an int past the budget, and a decimal literal of 301,031 digits inside the digit
        # check whose value, 10^301030, needs 1,000,001 bits
        with pytest.raises(CapacityError, match="^integer expression of 1000001 bits exceeds "
                                                "the 1000000-bit budget$"):
            parse_power_expr(1 << 1_000_000)
        with pytest.raises(CapacityError, match="^decimal literal of 1000001 bits exceeds "
                                                "the 1000000-bit budget$"):
            parse_power_expr("1" + "0" * 301_030)
        assert parse_power_expr("2^(2^19)") == 1 << 2**19
        assert parse_power_expr("2^(2^9)") == 2**512

    @given(st.integers(0, 10**1000))
    def test_decimal_round_trip(self, n):
        assert parse_power_expr(str(n)) == n

    @given(st.integers(0, 999_999))
    def test_power_round_trip(self, k):
        assert parse_power_expr(f"2^{k}") == 1 << k

    @given(st.integers(0, 19))
    def test_tower_round_trip(self, k):
        assert parse_power_expr(f"2^(2^{k})") == 1 << (1 << k)


class TestCommands:
    def test_count_b(self, capsys):
        record = run_json(capsys, ["count-b", "--schedule", "paper", "--x", "100000"])
        assert record["payload"]["b_count"] == 24141
        assert record["payload"]["j"] == 2

    def test_count_b_power_expression(self, capsys):
        record = run_json(capsys, ["count-b", "--schedule", "paper", "--x", "2^20"])
        assert record["payload"]["b_count"] == 87380

    def test_mertens(self, capsys):
        record = run_json(capsys, ["mertens", "--j", "3"])
        assert record["payload"]["product"] == {"num": "16", "den": "35"}

    def test_chebyshev(self, capsys):
        record = run_json(capsys, ["chebyshev", "--j", "2"])
        assert record["payload"]["holds"] is True

    def test_sieve_count(self, capsys):
        record = run_json(capsys, ["sieve-count", "--limit", "100"])
        assert record["payload"]["prime_count"] == 25

    @pytest.mark.parametrize("limit", [2_098_826, 41_951_777])
    def test_sieve_count_ending_on_a_short_segment(self, capsys, limit):
        # both limits end a short way (837 and 4369 odd slots) into their last segment
        payload = run_json(capsys, ["sieve-count", "--limit", str(limit)])["payload"]
        assert payload["prime_count"] == sympy.primepi(limit)
        assert payload["largest_prime"] == sympy.prevprime(limit + 1)
        assert payload["odd_count"] == sympy.primepi(limit) - 1

    def test_bounds_at_paper_scale(self, capsys):
        record = run_json(capsys, ["bounds", "--schedule", "paper", "--x", "2^600"])
        payload = record["payload"]
        assert payload["j"] == 3
        assert payload["b_lower_holds"] is True
        assert payload["count"]["conjecture_ratio"] > 1

    def test_sumset(self, capsys):
        record = run_json(capsys, ["sumset", "--schedule", "polynomial", "--x", "1000"])
        payload = record["payload"]
        assert payload["c_count"] == payload["s1_count"] + payload["s2_count"]

    def test_ratio_scan(self, capsys):
        record = run_json(
            capsys, ["ratio-scan", "--schedule", "polynomial", "--grid", "1000,10000"]
        )
        points = record["payload"]["points"]
        assert [p["x"] for p in points] == [1000, 10000]

    def test_covering_verify(self, capsys):
        record = run_json(capsys, ["covering", "verify"])
        assert record["payload"]["covers"] is True

    def test_covering_crt(self, capsys):
        record = run_json(capsys, ["covering", "crt"])
        assert record["payload"]["residue"] == 7629217
        assert record["payload"]["modulus"] == 11184810

    def test_depolignac_scan(self, capsys):
        record = run_json(capsys, ["depolignac", "scan", "--limit", "100000"])
        assert record["payload"]["scan"]["members_scanned"] == 0

    def test_depolignac_scan_explicit_progression(self, capsys):
        record = run_json(
            capsys,
            ["depolignac", "scan", "--residue", "1", "--modulus", "2", "--limit", "50"],
        )
        assert record["payload"]["scan"]["exceptions"]

    def test_romanov_density(self, capsys):
        record = run_json(capsys, ["romanov-density", "--limit", "10"])
        assert record["payload"]["scan"]["representable_fraction"] == pytest.approx(0.6)

    def test_experiment_list(self, capsys):
        record = run_json(capsys, ["experiment", "list"])
        assert set(record["payload"]["experiments"]) == set(BUILTIN_EXPERIMENTS)

    @pytest.mark.parametrize(
        "command,experiment,x,index",
        [("bounds", "paper-chain", "2^100", 1), ("sumset", "desk-density", "10000", 1)],
    )
    def test_point_matches_experiment_point(self, capsys, command, experiment, x, index):
        # the experiment's grid goes past x, so its blocks are built deeper than the CLI's
        config = builtin_experiment(experiment)
        assert config.x_grid[index] == parse_power_expr(x)
        argv = [command, "--schedule", config.schedule.kind, "--x", x]
        payload = run_json(capsys, argv)["payload"]
        assert payload == written(run_experiment(config))["payload"]["points"][index]

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["bounds", "sumset"]),
        schedule=st.sampled_from(["paper", "polynomial", "custom"]),
        x=st.integers(0, 2**20) | st.integers(0, 2**20).map(lambda r: 2**100 + r),
    )
    def test_cli_point_is_a_one_point_experiment(self, tmp_path_factory, command, schedule, x):
        # the same per-x report, the same payload; a refused x gets the same message
        custom = {"kind": "custom", "exponents": [1, 3, 6, 10, 15, 21, 120]}
        path = tmp_path_factory.getbasetemp() / "custom-schedule.json"
        path.write_text(json.dumps(custom))
        argv = [command, "--schedule", str(path) if schedule == "custom" else schedule,
                "--x", str(x)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
        config = ExperimentConfig(name=command, kind=command, x_grid=(x,),
                                  schedule=GrowthSchedule.from_json(custom)
                                  if schedule == "custom" else GrowthSchedule(schedule))
        if code == EXIT_OK:
            payload = json.loads(out.getvalue())["payload"]
            assert payload == written(run_experiment(config))["payload"]["points"][0]
        else:
            with pytest.raises(Exception) as refused:
                run_experiment(config)
            assert err.getvalue().endswith(f" error: {refused.value}\n"), err.getvalue()

    def test_romanov_density_matches_experiment(self, capsys):
        argv = ["romanov-density", "--limit", "100000", "--k-min", "0"]
        payload = run_json(capsys, argv)["payload"]
        config = ExperimentConfig(name="romanov", kind="romanov", limit=100000, k_min=0)
        assert payload == written(run_experiment(config))["payload"]


@functools.cache
def _huge_moduli_system() -> tuple[str, int]:
    """A valid 16-entry system's JSON, each modulus ord_q(2) times a random odd 300,000-bit
    number, and the first modulus's bit length; the lcm of all 16 takes tens of seconds."""
    rng = random.Random(20)
    entries = []
    for q in first_odd_primes(16):
        order = next(d for d in range(1, q) if pow(2, d, q) == 1)
        entries.append((order * (rng.getrandbits(300_000) | 1 << 299_999 | 1), q))
    text = ", ".join('{"residue": 0, "modulus": %s, "prime": %d}' % (int_decimal(modulus), q)
                     for modulus, q in entries)
    return '{"entries": [%s]}' % text, entries[0][0].bit_length()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_command(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_command(["count-b", "--x", "10"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: --schedule\n")

    def test_malformed_x_is_config_error(self, capsys):
        assert run_command(["count-b", "--schedule", "paper", "--x", "banana"]) == EXIT_CONFIG

    def test_bad_schedule_is_config_error(self, capsys):
        assert run_command(["count-b", "--schedule", "fancy", "--x", "10"]) == EXIT_CONFIG

    def test_budget_violation_is_capacity_error(self, capsys):
        code = run_command(
            ["sumset", "--schedule", "polynomial", "--x", "100000", "--budget", "100"]
        )
        assert code == EXIT_CAPACITY

    @pytest.mark.parametrize(
        "argv",
        [
            ["sumset", "--schedule", "paper", "--x", "2^20000"],
            ["ratio-scan", "--schedule", "paper", "--grid", "1000,2^20000"],
        ],
    )
    def test_unprintable_x_over_budget_is_capacity_error(self, capsys, argv):
        # x has more decimal digits than CPython prints, so the message names its size
        assert run_command(argv) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            "capacity error: x of 20001 bits exceeds the enumeration budget 100000000\n"
        )

    def test_printable_x_over_budget_message(self, capsys):
        assert run_command(["sumset", "--schedule", "paper", "--x", "2^40"]) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            "capacity error: x=1099511627776 exceeds the enumeration budget 100000000\n"
        )

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SUMSETLAB_ENUM_CAP", "100")
        code = run_command(["sumset", "--schedule", "polynomial", "--x", "100000"])
        assert code == EXIT_CAPACITY

    def test_malformed_config_file(self, capsys, tmp_path):
        bad = tmp_path / "exp.json"
        bad.write_text('{"name": "x"}')
        assert run_command(["experiment", "run", str(bad)]) == EXIT_CONFIG
        bad.write_text("{not json")
        assert run_command(["experiment", "run", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv,document,env",
        [
            (["count-b", "--schedule", "paper", "--x", LONG], None, None),
            (["ratio-scan", "--schedule", "paper", "--grid", "10," + LONG], None, None),
            (["experiment", "run", "{path}"],
             {"name": "x", "kind": "bounds", "schedule": {"kind": "paper"}, "x_grid": [LONG]},
             None),
            (["count-b", "--schedule", "{path}", "--x", "10"], {"kind": LONG}, None),
            (["count-b", "--schedule", "{path}", "--x", "10"],
             {"kind": "custom", "exponents": LONG}, None),
            (["count-b", "--schedule", "{path}", "--x", "10"], [LONG], None),
            (["experiment", "run", "{path}"], {"name": "x", "kind": LONG}, None),
            (["experiment", "run", "{path}"], {"name": "x", "kind": [LONG]}, None),
            (["experiment", "run", "{path}"], {"name": "x", "kind": "bounds", "budgets": LONG},
             None),
            (["experiment", "run", "{path}"], {"name": "x", "kind": "bounds", "x_grid": LONG},
             None),
            (["experiment", "run", "{path}"],
             {"name": "x", "kind": "romanov", "limit": 1000, "k_min": [LONG]}, None),
            (["experiment", "run", "{path}"], {"name": LONG, "kind": "bounds"}, None),
            (["sumset", "--schedule", "polynomial", "--x", "1000"], None, LONG),
            (["count-b", "--schedule", LONG, "--x", "10"], None, None),
            (["experiment", "run", LONG], None, None),
            (["covering", "verify", "--system", LONG], None, None),
            (["count-b", "--schedule", "paper", "--x", "10", "--out", LONG], None, None),
        ],
        ids=["x", "grid-entry", "config-grid-entry", "schedule-kind", "schedule-exponents",
             "schedule-spec", "config-kind", "config-kind-list", "budgets", "x_grid",
             "int-field", "config-name", "enum-cap-env", "schedule-path", "experiment-target",
             "system-path", "out-path"],
    )
    def test_long_outside_text_is_named_not_echoed(self, capsys, tmp_path, monkeypatch, argv,
                                                   document, env):
        # past 64 characters a message names the value by its type and length
        path = tmp_path / "input.json"
        if document is not None:
            path.write_text(json.dumps(document))
        if env is not None:
            monkeypatch.setenv("SUMSETLAB_ENUM_CAP", env)
        assert run_command([arg.replace("{path}", str(path)) for arg in argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: "), err
        assert all(len(line.encode()) < 200 for line in err.splitlines()), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sieve-count", "--limit", "2^34"],
            ["romanov-density", "--limit", "2^34"],
            ["depolignac", "scan", "--limit", "2^34"],
            ["depolignac", "scan", "--residue", "1", "--modulus", "2", "--limit", "2^40"],
            ["sieve-count", "--limit", "2^20000"],
            ["romanov-density", "--limit", "2^20000"],
            ["depolignac", "scan", "--limit", "2^20000"],
        ],
    )
    def test_scan_limit_cap_is_capacity_error(self, capsys, argv):
        # the cap fires before anything is allocated, and names a long limit by its size
        assert run_command(argv) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and len(err) < 200, err

    @pytest.mark.parametrize(
        "command", [["covering", "verify"], ["depolignac", "scan", "--limit", "1000"]],
        ids=["covering-verify", "depolignac-scan"],
    )
    def test_covering_lcm_cap_is_capacity_error(self, capsys, tmp_path, command):
        # a valid system whose lcm, 3*10^12, is past 2^34: refused before its scan would
        # loop over 3*10^12 residues in Python
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"entries": [
            {"residue": 0, "modulus": 2, "prime": 3},
            {"residue": 1, "modulus": 3 * 10**12, "prime": 7},
        ]}))
        assert run_command([*command, "--system", str(path)]) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            "capacity error: covering lcm=3000000000000 is beyond the supported range"
            " (below 2^34)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["covering", "verify", "--system", "{root}/system.json"],
            ["covering", "crt", "--system", "{root}/system.json"],
            ["depolignac", "scan", "--limit", "1000", "--system", "{root}/system.json"],
            ["experiment", "run", "{root}/config.json"],
        ],
        ids=["covering-verify", "covering-crt", "depolignac-scan", "experiment"],
    )
    def test_covering_lcm_stops_at_the_first_partial_past_the_cap(self, capsys, tmp_path, argv):
        # the first modulus alone is past 2^34, so the lcm goes no further; the whole lcm of
        # these moduli took 26 s to form (2-core Xeon), the refusal about 1 s, mostly parsing
        system, first = _huge_moduli_system()
        (tmp_path / "system.json").write_text(system)
        (tmp_path / "config.json").write_text(
            '{"name": "huge", "kind": "depolignac", "limit": 1000, "system": %s}' % system)
        start = time.perf_counter()
        assert run_command([arg.replace("{root}", str(tmp_path)) for arg in argv]) == EXIT_CAPACITY
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().err == (
            f"capacity error: covering lcm of {first} bits is beyond the supported range"
            " (below 2^34)\n"
        )

    def test_deep_custom_schedule_is_refused_before_its_moduli_are_built(self, capsys,
                                                                         tmp_path):
        # 60,000 windows below 2^60001: the moduli d_1..d_56116 inside the budget hold about
        # 3 GiB, and d_56117 is the first past it
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({"kind": "custom", "exponents": list(range(1, 60_002))}))
        tracemalloc.start()
        try:
            code = run_command(["count-b", "--schedule", str(path), "--x", "2^60000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            "capacity error: d_56117 needs 1000011 bits, over the 1000000-bit budget\n"
        )
        assert peak < 32 * 2**20, peak

    def test_deepest_custom_schedule_in_the_budget_is_counted(self, capsys, tmp_path):
        # 56,116 windows below 2^56117, the last with d_56116 of 999,991 bits: the moduli
        # together take about 3.2 GiB, but a count builds only the top one
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"kind": "custom", "exponents": list(range(1, 56_118))}))
        assert run_command(["count-b", "--schedule", str(path), "--x", "2^56116"]) == EXIT_OK
        assert loads(capsys.readouterr().out)["payload"]["j"] == 56_116

    @pytest.mark.parametrize("command", ["sumset", "bounds"])
    def test_top_window_ends_at_x_past_the_budget(self, capsys, tmp_path, command):
        # x = 1000 lies in window 3, whose end G(4) = 2^1000000 is past the bit budget
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"kind": "custom", "exponents": [1, 2, 3, 1_000_000]}))
        assert run_command([command, "--schedule", str(path), "--x", "1000"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["payload"]["j"] == 3

    @pytest.mark.parametrize("kind", ["depolignac", "romanov"])
    def test_experiment_scan_limit_cap_is_capacity_error(self, capsys, tmp_path, kind):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "kind": kind, "limit": "2^34"}))
        assert run_command(["experiment", "run", str(path)]) == EXIT_CAPACITY

    @pytest.mark.parametrize(
        "handler,argv,command",
        [
            ("_cmd_sieve_count", ["sieve-count", "--limit", "2^33"], "sieve-count"),
            ("_cmd_depolignac_scan", ["depolignac", "scan", "--limit", "2^33"],
             "depolignac scan"),
        ],
    )
    def test_out_of_memory_is_capacity_error(self, capsys, monkeypatch, handler, argv, command):
        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setattr(cli, handler, out_of_memory)
        assert run_command(argv) == EXIT_CAPACITY
        assert capsys.readouterr().err == f"capacity error: {command} ran out of memory\n"

    def test_inapplicable_x_is_config_error(self, capsys):
        # block index 1: the s2 side of the chain does not exist yet
        assert run_command(["sumset", "--schedule", "polynomial", "--x", "10"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "exponents,x,name",
        [([20, 40], "200000000", "x=200000000"), ([20, 200000], "2^70000", "x of 70001 bits")],
    )
    def test_inapplicable_x_over_budget_is_config_error(self, capsys, tmp_path, exponents, x,
                                                         name):
        # block index 1 is refused before the enumeration budget is consulted
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"kind": "custom", "exponents": exponents}))
        assert run_command(["sumset", "--schedule", str(path), "--x", x]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: bound chain needs block index >= 2, got 1 at {name}\n"
        )

    def test_out_write_failure_is_config_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["count-b", "--schedule", "paper", "--x", "100000", "--out", "missing/record.json"]
        assert run_command(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [Errno 2] No such file or directory: 'missing/record.json'\n")

    def test_empty_out_path_is_config_error(self, capsys, monkeypatch, tmp_path):
        # Path("") is Path("."), a directory, as for every other file argument; an empty
        # --out is no request to print the record
        monkeypatch.chdir(tmp_path)
        argv = ["count-b", "--schedule", "paper", "--x", "100000", "--out", ""]
        assert run_command(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: [Errno 21] Is a directory: '.'\n")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sumset", "--schedule", "polynomial", "--x", "1000"],
            ["ratio-scan", "--schedule", "polynomial", "--grid", "1000"],
            ["experiment", "run", "open-question"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_positive_budget_is_config_error(self, capsys, monkeypatch, argv, via_env, budget):
        if via_env:
            monkeypatch.setenv("SUMSETLAB_ENUM_CAP", budget)
        else:
            argv = [*argv, "--budget", budget]
        assert run_command(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: budgets must be positive\n"

    @pytest.mark.parametrize(
        "flag,document",
        [
            pytest.param("config", {"name": "x", "kind": "sumset", "x_grid": [1000],
                                    "budgets": 5}, id="budgets-number"),
            pytest.param("config", {"name": "x", "kind": "sumset", "x_grid": 5},
                         id="x_grid-number"),
            pytest.param("config", {"name": "x", "kind": "depolignac", "limit": 1000,
                                    "k_min": [1]}, id="k_min-list"),
            pytest.param("config", {"name": "x", "kind": "sumset", "x_grid": [1000],
                                    "budgets": {"enumeration": None}}, id="enumeration-null"),
            pytest.param("config", {"name": "x", "kind": "depolignac", "limit": 1000,
                                    "system": {"entries": [[1, 2, 3]]}}, id="config-system"),
            pytest.param("system", {"entries": [[1, 2, 3]]}, id="entry-list"),
            pytest.param("system", [], id="system-list"),
            pytest.param("system", {"entries": [{"residue": 0, "modulus": 2}]},
                         id="entry-without-prime"),
            pytest.param("system", {"entries": [{"residue": [0], "modulus": 2, "prime": 3}]},
                         id="residue-list"),
            pytest.param("schedule", {"kind": "custom", "exponents": 5}, id="exponents-number"),
            pytest.param("schedule", {"kind": "custom", "exponents": [[1]]},
                         id="exponent-list"),
            # a JSON number that is not an integer is refused, not truncated or overflowed
            pytest.param("schedule", {"kind": "custom", "exponents": [1.5, 4.9]},
                         id="exponent-float"),
            pytest.param("schedule", '{"kind": "custom", "exponents": [1, 1e400]}',
                         id="exponent-1e400"),
            pytest.param("schedule", {"kind": "custom", "exponents": [True, 4]},
                         id="exponent-bool"),
            pytest.param("config", {"name": "x", "kind": "romanov", "limit": 1000,
                                    "k_min": 2.5}, id="k_min-float"),
            pytest.param("config", '{"name": "x", "kind": "romanov", "limit": 1000, '
                                   '"k_min": -Infinity}', id="k_min-infinity"),
            pytest.param("config", {"name": "x", "kind": "sumset", "x_grid": [100000],
                                    "schedule": {"kind": "polynomial"},
                                    "budgets": {"enumeration": 1e9}}, id="enumeration-float"),
            pytest.param("config", '{"name": "x", "kind": "sumset", "x_grid": [1000], '
                                   '"schedule": {"kind": "polynomial"}, '
                                   '"budgets": {"enumeration": 1e400}}', id="enumeration-1e400"),
            pytest.param("config", {"name": "x", "kind": "sumset", "x_grid": [100],
                                    "schedule": {"kind": "polynomial"},
                                    "budgets": {"enumeration": True}}, id="enumeration-bool"),
            pytest.param("system", {"entries": [{"residue": 1.5, "modulus": 2, "prime": 3}]},
                         id="residue-float"),
            pytest.param("system", '{"entries": [{"residue": 0, "modulus": 1e400, "prime": 3}]}',
                         id="modulus-1e400"),
            pytest.param("system", {"entries": [{"residue": True, "modulus": 2, "prime": 3}]},
                         id="residue-bool"),
            # exponents belong to custom schedules only, as in the constructor
            pytest.param("schedule", {"kind": "paper", "exponents": [1]},
                         id="paper-exponents"),
            pytest.param("schedule", {"kind": "polynomial", "exponents": [1, 4, 9]},
                         id="polynomial-exponents"),
            pytest.param("schedule", {"kind": "paper", "exponents": 5},
                         id="paper-exponents-number"),
            pytest.param("config", {"name": [1], "kind": "romanov", "limit": 1000},
                         id="name-list"),
            pytest.param("config", {"name": 7, "kind": "romanov", "limit": 1000},
                         id="name-number"),
        ],
    )
    def test_malformed_json_shape_is_config_error(self, capsys, tmp_path, flag, document):
        path = tmp_path / "input.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        argv = {
            "config": ["experiment", "run", str(path)],
            "system": ["covering", "verify", "--system", str(path)],
            "schedule": ["count-b", "--schedule", str(path), "--x", "1000"],
        }[flag]
        assert run_command(argv) == EXIT_CONFIG  # returns: nothing escapes as a traceback
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "value", [True, 1.5, None, [1], {"a": 1}, "abc", LONG],
        ids=["true", "float", "null", "list", "object", "text", "long-text"],
    )
    @pytest.mark.parametrize(
        "flag,document",
        [
            ("schedule", lambda v: {"kind": "custom", "exponents": [1, v]}),
            ("config", lambda v: {"name": "x", "kind": "romanov", "limit": 1000, "k_min": v}),
            ("config", lambda v: {"name": "x", "kind": "sumset", "x_grid": [1000],
                                  "schedule": {"kind": "polynomial"},
                                  "budgets": {"enumeration": v}}),
            ("config", lambda v: {"name": "x", "kind": "depolignac", "limit": v}),
            ("config", lambda v: {"name": "x", "kind": "bounds", "x_grid": [v],
                                  "schedule": {"kind": "paper"}}),
            ("system", lambda v: {"entries": [{"residue": v, "modulus": 2, "prime": 3}]}),
            ("system", lambda v: {"entries": [{"residue": 0, "modulus": v, "prime": 3}]}),
            ("system", lambda v: {"entries": [{"residue": 0, "modulus": 2, "prime": v}]}),
        ],
        ids=["exponent", "k_min", "enumeration", "limit", "x_grid", "residue", "modulus",
             "prime"],
    )
    def test_every_integer_field_refuses_what_is_not_an_integer(self, capsys, tmp_path, flag,
                                                                 document, value):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document(value)))
        argv = {
            "config": ["experiment", "run", str(path)],
            "system": ["covering", "verify", "--system", str(path)],
            "schedule": ["count-b", "--schedule", str(path), "--x", "1000"],
        }[flag]
        assert run_command(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert len(err.encode()) < 200, err

    @pytest.mark.parametrize("target", ["", ".", "{dir}", LONG],
                             ids=["empty", "dot", "directory", "name-too-long"])
    @pytest.mark.parametrize(
        "argv,argument",
        [
            (["count-b", "--schedule", "{target}", "--x", "10"], "--schedule"),
            (["covering", "verify", "--system", "{target}"], "--system"),
            (["experiment", "run", "{target}"], "experiment run"),
        ],
        ids=["schedule", "system", "experiment-run"],
    )
    def test_file_argument_must_be_a_regular_file(self, capsys, tmp_path, argv, argument,
                                                  target):
        # Path("") is Path("."): neither is read as a directory; a 5000-character name is
        # too long for the file system, and is no file either
        target = target.replace("{dir}", str(tmp_path))
        assert run_command([arg.replace("{target}", target) for arg in argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {argument} ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv,document",
        [
            (["depolignac", "scan", "--limit", "1000", "--k-min", "{n}"], None),
            (["romanov-density", "--limit", "1000", "--k-min", "{n}"], None),
            (["mertens", "--j", "{n}"], None),
            (["chebyshev", "--j", "{n}"], None),
            (["experiment", "run", "{path}"], '{"name": "x", "kind": "depolignac", "limit": {n}}'),
            (["experiment", "run", "{path}"],
             '{"name": "x", "kind": "depolignac", "limit": 1000, "k_min": {n}}'),
            (["experiment", "run", "{path}"],
             '{"name": "x", "kind": "bounds", "schedule": {"kind": "paper"}, "x_grid": [{n}]}'),
        ],
        ids=["scan-k-min", "romanov-k-min", "mertens-j", "chebyshev-j", "config-limit",
             "config-k-min", "config-x_grid"],
    )
    def test_range_error_names_a_big_integer_by_size(self, capsys, tmp_path, argv, document):
        # a 5000-digit negative integer is below every range, and is named by its size
        n = "-" + "7" * 5000
        path = tmp_path / "config.json"
        if document is not None:
            path.write_text(document.replace("{n}", n))
        argv = [arg.replace("{n}", n).replace("{path}", str(path)) for arg in argv]
        assert run_command(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.endswith(", got a negative int of 16610 bits\n"), err
        assert err.count("\n") == 1 and len(err.encode()) < 200, err

    def test_decimal_strings_in_integer_fields_still_parse(self, capsys, tmp_path):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"kind": "custom", "exponents": ["2", "5", "9"]}))
        record = run_json(capsys, ["count-b", "--schedule", str(schedule), "--x", "100"])
        assert record["config"]["schedule"]["exponents"] == [2, 5, 9]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"name": "x", "kind": "romanov", "limit": 1000,
                                      "k_min": "2", "budgets": {"enumeration": "5000"}}))
        record = run_json(capsys, ["experiment", "run", str(config)])
        assert (record["config"]["k_min"], record["config"]["budgets"]) == (2, {"enumeration": 5000})

    def test_system_with_explicit_progression_is_config_error(self, capsys, tmp_path):
        # rejected before the file is read, so a missing file is not silently ignored
        argv = ["depolignac", "scan", "--system", str(tmp_path / "missing.json"),
                "--residue", "1", "--modulus", "2", "--limit", "50"]
        assert run_command(argv) == EXIT_CONFIG
        assert "--system" in capsys.readouterr().err


# experiment files that parse but that a check refuses, by the placeholder that names them
INPUT_DOCUMENTS = {
    "list": [],
    "zero-budget": {"name": "z", "kind": "sumset", "schedule": {"kind": "polynomial"},
                    "x_grid": [1000], "budgets": {"enumeration": 0}},
    "empty-grid": {"name": "e", "kind": "bounds", "schedule": {"kind": "paper"}, "x_grid": []},
    "no-limit": {"name": "r", "kind": "romanov"},
    "no-schedule": {"name": "e", "kind": "sumset", "x_grid": [1000]},
    # a kind that runs no covering system still has its system checked when the config is read
    "bounds-bad-system": {"name": "b", "kind": "bounds", "schedule": {"kind": "paper"},
                          "x_grid": [2**20],
                          "system": {"entries": [{"residue": 0, "modulus": 3, "prime": 5}]}},
}


class TestWhoseFault:
    """The exit code says whose fault a failure is: 2 the input's, 3 the budget's, 4 a claim's."""

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["sieve-count", "--limit", "1"], "sieve limit must be >= 2, got 1"),
            (["count-b", "--schedule", "paper", "--x", "1"], "x must be >= 2, got 1"),
            (["sumset", "--schedule", "paper", "--x", "0"], "x must be >= 1, got 0"),
            (["mertens", "--j", "0"], "j must be >= 1, got 0"),
            (["mertens", "--j", "-5"], "j must be >= 1, got -5"),
            (["chebyshev", "--j", "0"], "j must be >= 1, got 0"),
            (["depolignac", "scan", "--limit", "100", "--residue", "4", "--modulus", "9"],
             "certificate residue must be odd, got residue=4"),
            (["covering", "verify", "--system", "{truncated}"],
             "Expecting value: line 1 column 14 (char 13)"),
            (["covering", "verify", "--system", "{binary}"],
             "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (["count-b", "--schedule", "paper", "--x", "10", "--out", "{dir}/a\0b"],
             "embedded null byte"),
            (["depolignac", "scan", "--limit", "1000", "--residue", "7"],
             "--residue and --modulus must be given together"),
            (["experiment", "run", "{list}"], "experiment config must be a JSON object"),
            (["experiment", "run", "{zero-budget}"], "budgets must be positive"),
            (["experiment", "run", "{empty-grid}"], "experiment 'e' needs a non-empty x_grid"),
            (["experiment", "run", "{no-limit}"], "experiment 'r' needs a limit"),
            (["experiment", "run", "{no-schedule}"], "experiment 'e' needs a schedule"),
            (["experiment", "run", "{bounds-bad-system}"],
             "q=5 does not divide 2^modulus - 1 with modulus=3 in entry 0"),
        ],
        ids=["sieve-limit", "count-b-x", "sumset-x", "mertens-j", "mertens-negative-j",
             "chebyshev-j", "even-residue",
             "truncated-json", "not-utf-8", "nul-in-out-path", "residue-without-modulus",
             "config-list", "config-zero-budget", "config-empty-grid", "romanov-without-limit",
             "sumset-without-schedule", "bounds-malformed-system"],
    )
    def test_input_errors_exit_2_with_the_same_message(self, capsys, tmp_path, argv, err):
        (tmp_path / "truncated.json").write_text('{"entries": [')
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe garbage")
        paths = {"{truncated}": str(tmp_path / "truncated.json"),
                 "{binary}": str(tmp_path / "binary.json")}
        for name, document in INPUT_DOCUMENTS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(document))
            paths[f"{{{name}}}"] = str(tmp_path / f"{name}.json")
        argv = [paths.get(arg, arg.replace("{dir}", str(tmp_path))) for arg in argv]
        assert run_command(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {err}\n"

    @pytest.mark.parametrize("x", ["2^100", "2^999999"])
    def test_failed_certified_bound_exits_4_on_one_short_line(self, capsys, monkeypatch, x):
        # half the true count falls far below the bound from the top two blocks
        monkeypatch.setattr("sumsetlab.blocks.count_b", lambda x, b: count_b(x, b) // 2)
        assert run_command(["count-b", "--schedule", "paper", "--x", x]) == EXIT_CLAIM
        err = capsys.readouterr().err
        assert err.startswith("claim error: b_count fell below its certified lower bound: ")
        assert err.count("\n") == 1 and len(err.encode()) < 200, err

    @pytest.mark.parametrize(
        "shift,err",
        [
            (10**6, "s1_count must be <= c_count: s1_count=1000395 > c_count=9017"),
            (-81, "s1_overlap must be >= 0: s1_overlap=-1"),  # the true overlap is 80
        ],
        ids=["s1-overcount", "s1-undercount"],
    )
    def test_a_sumset_chain_out_of_order_exits_4_on_one_line(self, capsys, monkeypatch, shift,
                                                              err):
        from sumsetlab import sumset

        count_top_sums = sumset._count_top_sums
        monkeypatch.setattr(sumset, "_count_top_sums",
                            lambda x, blocks, j: count_top_sums(x, blocks, j) + shift)
        argv = ["sumset", "--schedule", "polynomial", "--x", "100000"]
        assert run_command(argv) == EXIT_CLAIM
        assert capsys.readouterr().err == f"claim error: {err} at x=100000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sumset", "--schedule", "polynomial", "--x", str(10**20), "--budget", str(10**21)],
            ["ratio-scan", "--schedule", "polynomial", "--grid", str(10**20),
             "--budget", str(10**21)],
        ],
        ids=["sumset", "ratio-scan"],
    )
    def test_bitmap_past_array_indexing_is_capacity_error(self, capsys, argv):
        # refused before numpy is asked for the array
        assert run_command(argv) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            f"capacity error: x of 67 bits needs a bitmap of more than {sys.maxsize} bytes, "
            "past what an array can index\n"
        )

    def test_prime_past_the_miller_rabin_bound_is_named_in_its_entry(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text('{"entries": [{"residue": 0, "modulus": 2, '
                        '"prime": 3317044064679887385961983}]}')
        assert run_command(["covering", "verify", "--system", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: q of 82 bits exceeds the deterministic Miller-Rabin bound in entry 0\n"
        )

    def test_a_stray_value_error_is_a_bug_and_keeps_its_traceback(self, monkeypatch):
        def broken(args):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "_cmd_count_b", broken)
        with pytest.raises(ValueError, match="a bug"):
            run_command(["count-b", "--schedule", "paper", "--x", "10"])

    @pytest.mark.parametrize(
        "error,code,label",
        [
            (ConfigError, 2, "config"),
            (CapacityError, 3, "capacity"),
            (ClaimError, 4, "claim"),
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else None,
    )
    def test_a_library_error_exits_with_its_code_and_label(self, capsys, monkeypatch, error,
                                                           code, label):
        def failing(args):
            raise error("what went wrong at x=10")

        monkeypatch.setattr(cli, "_cmd_count_b", failing)
        assert run_command(["count-b", "--schedule", "paper", "--x", "10"]) == code
        assert capsys.readouterr().err == f"{label} error: what went wrong at x=10\n"

    @pytest.mark.parametrize("depth", [1000, 5000, 100_000])
    @pytest.mark.parametrize(
        "argv",
        [
            ["count-b", "--schedule", "{path}", "--x", "10"],
            ["covering", "verify", "--system", "{path}"],
            ["experiment", "run", "{path}"],
        ],
        ids=["schedule", "system", "config"],
    )
    def test_json_nested_too_deeply_is_config_error(self, capsys, tmp_path, argv, depth):
        path = tmp_path / "nested.json"
        path.write_text("[" * depth + "]" * depth)
        assert run_command([arg.replace("{path}", str(path)) for arg in argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        # json decodes 1,000 levels on 3.12 and 5,000 on 3.13, 100,000 on none of 3.10-3.13;
        # a file it decodes is refused for its shape, on one line as well
        try:
            json.loads(path.read_text())
        except RecursionError as exc:
            assert err == f"config error: {exc}\n"
        else:
            assert err.startswith("config error: ") and err.count("\n") == 1, err


@dataclasses.dataclass(frozen=True)
class _Report:
    x: int
    ratio: Fraction
    bound: Fraction | None


class _Check(NamedTuple):
    holds: bool
    witnesses: tuple


# One argv per leaf subcommand and per built-in experiment, with the CSV header
# where it is pinned.
CSV_CASES = {
    "count-b": (["count-b", "--schedule", "paper", "--x", "100000"],
                "x,j,b_count,a_count,b_lower_bound,ratio_exact,conjecture_ratio,lossy"),
    "sumset": (["sumset", "--schedule", "polynomial", "--x", "1000"],
               "x,j,c_count,s1_count,s2_count,s1_overlap,density,sqrt_check,"
               "s1_bound,s2_bound,c_bound,s1_legendre,lossy"),
    "bounds": (["bounds", "--schedule", "paper", "--x", "2^600"], None),
    "ratio-scan": (["ratio-scan", "--schedule", "polynomial", "--grid", "1000,10000"], None),
    "sieve-count": (["sieve-count", "--limit", "1000"], None),
    "mertens": (["mertens", "--j", "8"], None),
    "chebyshev": (["chebyshev", "--j", "8"], None),
    "covering-verify": (["covering", "verify"], None),
    "covering-crt": (["covering", "crt"], None),
    "depolignac-scan": (["depolignac", "scan", "--limit", "1000000"], None),
    "romanov-density": (["romanov-density", "--limit", "10000"], None),
    "experiment-list": (["experiment", "list"], None),
    **{f"experiment-run-{name}": (["experiment", "run", name], None)
       for name in sorted(BUILTIN_EXPERIMENTS)},
}


# sha256 of what each call printed when a record was still encoded as it was built: the
# exact text of the "config" and "payload" members of its JSON record, and its whole CSV.
# These pin the bytes across commits, where a comparison with the same encoder cannot.
FROZEN_OUTPUT = {
    "count-b --schedule paper --x 100000": (
        "819d09b8ff2c5d4ce5e4bb6055928d0206f4abd1d58abdfe0908ac2d554e1840",
        "b9a5081ea77709cc6ff1f7e9b33c6e2262279615fce98cd344a735d8a03bc52b",
    ),
    "count-b --schedule paper --x 2^70000": (
        "c090b8b92968458f5820e427de830efc7e1f7658f6d241581371a67b62c40a60",
        "79c7f48ca99aadff31e15c994ded57e4f5c6cea457b330b4780535f586a328fc",
    ),
    "bounds --schedule paper --x 2^600": (
        "52537243678aec4d2667135740a6ef7bf9f741a9c6632f9d0f959d599a30cb8a",
        "4894887f53db24dadefc4c607c41e6c85c656a063eeb26e2ff02dbee56b33eb4",
    ),
    "bounds --schedule paper --x 2^70000": (
        "b19edade02d5afe4467d957c61b4163e807c73c66d7e13e7e6c7a829561b8363",
        "ff03baca1a6d2deb99ee202a5c52897d2d609d33c3f1487dd96ac871041128e2",
    ),
    "sumset --schedule polynomial --x 100000": (
        "a807d721fcbb1f306a8538462ad29c3d5338ddb62437642995bedc3f14aee8a9",
        "69200a661790780bf47f31e0b4899a210835398ea7db01d901aa07f841c04cb0",
    ),
    "ratio-scan --schedule polynomial --grid 1000,10000,100000": (
        "0da7704f590067a25b59a0ce4190d4dd2af2dbec96a6441d2b44c163a0dd428e",
        "ba454c88026f7e9012650698493cc8f5b7a3d8c381b5b465fe42bfa0518c16ea",
    ),
    "sieve-count --limit 1000000": (
        "b7aaab1ec07f80ea3bd4e2cb5243581316d1ce02853dfc792f3592943293bb03",
        "2ea32a67abc162b583cf61825cb31c227e8e3399de36096e9ee2244644311ae1",
    ),
    "mertens --j 200 --include-two": (
        "0b403b416183151f61c4a1ed2da1f500eeca605fc5dd001931a4bf2565b0db07",
        "fddfd84f44b6a1a16ae40aeff165e042f9f009a9787a26b1bdeed5e2a0198065",
    ),
    "chebyshev --j 100": (
        "d28f7cc4772de425bf3818d8ab81e07783c8fbabfb7a3a80ba950bef8ea8ca97",
        "ce0fdc9def4e514ab24ac94c3d90312a81196942b8f0b70b80ec3599f13343fe",
    ),
    "covering verify": (
        "123dd8d8a83a4871da302b8911807cda37cdce1905faa83b365c9fd43e585fa0",
        "2828ffd709b258f563fc42d574994efeb750f98fe54d9e25b0013f4ed2526fe6",
    ),
    "covering crt": (
        "edf2694d32a7b17cbeecaafcf6602431c07795ec6a71509f35084ee4787fbee6",
        "fce9b47b99a96dcd9c7c01bb3e1670e177a02e87b8e817724942b7ed72c1531c",
    ),
    "depolignac scan --limit 1000000": (
        "3ac698e3511bbcf4f503bed56d299a9e63920c64f08040be2255eb00b4e72ce1",
        "8f668bd26e03d2d95588ff7beebbd082c709e89486e08bdc390a6aa1c20beff9",
    ),
    "romanov-density --limit 100000 --k-min 0": (
        "0bdb969ff2ec59936a8fcf890d79d206a95ebe2a37b671cd145d148c6d1c5ddf",
        "874974a2c855e306847772a6ea0feea29f832df96374afe64660c2d914f98ad4",
    ),
    "experiment list": (
        "d08306743a5e66ae1e850ec656d6cab090316e4a33dacccc4334f9e3f3ed6e2a",
        "da0d500811a6fd9f0e87d2f660ba8e4f8b20753f37461b5ad9601b6c5cf7e36b",
    ),
    "experiment run paper-chain": (
        "bb4e9dedd5a6ca8f0d2ca280edf3766780574387db3e0b45aa4001ef647f86a3",
        "426bb3dc0b4e2d70856ab032e6a5b376d7fbc9aadeee2ab061e7570a1fe08b58",
    ),
    "experiment run desk-density": (
        "440408f7ed02cd51fbb04a68cc246b7b75b98ac3ea6994d4d79665c68694c5ff",
        "94c111fab523ba792f83ed85003874b33fbef4203ad4a699d4c7ca1a36832b0b",
    ),
    "experiment run depolignac-audit": (
        "fa206f964213051e3668fdabbeb35cc7d86a62658f7cd27b2363534a654ba6b9",
        "163e239ffc2fa8f41b3aa9c31d309b54b743354dade003955554241ce587b754",
    ),
    "experiment run open-question": (
        "89b50a414077e378d49e807e8e66da4733e8c32feaa7d745b3aeb14ef2f0b046",
        "862a80571dbe4adadd68d7d7588c4cbc07563a33b952fab638f49920d3a3f3b9",
    ),
}


def record_members(text: str) -> dict:
    """The top-level members of a JSON record as printed, by key: each one's exact text."""
    parts = re.split(r'\n  (?="\w+": )', text)  # nested keys are indented further
    return {part[1 : part.index('"', 1)]: part for part in parts[1:]}


# Oracles for frozen payloads, from the definitions and sympy alone: none imports sumsetlab.
# the shipped covering system, Erdős's, as (residue, modulus, prime): the oracles' own copy
SHIPPED_COVERING = ((0, 2, 3), (0, 3, 7), (1, 4, 5), (3, 8, 17), (7, 12, 13), (23, 24, 241))


def _oracle_int(text: str) -> int:
    """Decimal text as an int, read through Decimal past 4000 digits (under the digit limit)."""
    return int(text) if len(text) <= 4000 else int(Decimal(text))


def _oracle_loads(text: str):
    return json.loads(text, parse_int=_oracle_int)


def _oracle_fraction(obj: dict | None) -> Fraction | None:
    return None if obj is None else Fraction(_oracle_int(obj["num"]), _oracle_int(obj["den"]))


def _sympy_odd_primes(j: int) -> list[int]:
    return [sympy.prime(i) for i in range(2, j + 2)]


def _shipped_entries() -> list[dict]:
    return [{"residue": a, "modulus": m, "prime": q} for a, m, q in SHIPPED_COVERING]


def _windows(exponent, x: int) -> list[tuple[int, int, int]]:
    """(G(t), last, d_t) for each window t = 1..j with G(t) = 2^e(t) <= x.

    A window runs from G(t) to G(t + 1) - 1, the top one to x; d_t multiplies
    the first t odd primes.
    """
    log2x, windows, t = x.bit_length() - 1, [], 1
    while exponent(t) <= log2x:
        last = x if exponent(t + 1) > log2x else 2 ** exponent(t + 1) - 1
        windows.append((2 ** exponent(t), last, math.prod(_sympy_odd_primes(t))))
        t += 1
    return windows


def _paper(t: int) -> int:
    return 2 ** (t * t)


def _polynomial(t: int) -> int:
    return t * t


def _b_count(windows) -> int:
    """Members of B: the multiples of d_t between G(t) and each window's last value."""
    return sum(last // d - (lo - 1) // d for lo, last, d in windows)


def _mertens(j: int) -> Fraction:
    return math.prod((1 - Fraction(1, p) for p in _sympy_odd_primes(j)), start=Fraction(1))


def _sieve_bounds(x: int, windows) -> dict:
    """The s1, s2 and c bounds at x from their formulas, with j = len(windows) >= 2."""
    j = len(windows)
    s1 = x * _mertens(j) + 2**j
    s2 = x * _mertens(j - 1) + 2 ** (j - 1) + windows[j - 2][0] * (x.bit_length() - 1)
    return {"s1_bound": s1, "s2_bound": s2, "c_bound": s1 + s2}


def _sums(x: int, windows) -> tuple[set, set]:
    """The sums 2^a + b <= x (a >= 1) with b in the top window, and those with b below it."""
    top, lower = set(), set()
    for t, (lo, last, d) in enumerate(windows, 1):
        for power in (2**a for a in range(1, x.bit_length())):
            members = range(-(-lo // d) * d, min(last, x - power) + 1, d)
            (top if t == len(windows) else lower).update(power + b for b in members)
    return top, lower


def _count_report(x: int, windows, count: dict) -> None:
    j, b, a = len(windows), _b_count(windows), x.bit_length() - 1
    (lo, _, d), (lo_below, _, d_below) = windows[-1], windows[-2]
    assert {**count, "b_lower_bound": _oracle_fraction(count["b_lower_bound"]),
            "ratio_exact": _oracle_fraction(count["ratio_exact"])} == {
        "x": x, "j": j, "b_count": b, "a_count": a,
        "b_lower_bound": Fraction(x - lo, d) + Fraction(lo - lo_below, d_below) - 2,
        "ratio_exact": Fraction(a * b, x), "conjecture_ratio": a * b / x}


def _count_b_oracle(x: int):
    def check(payload):
        windows = _windows(_paper, x)
        if x == 10**5:
            assert _b_count(windows) == 24141
        _count_report(x, windows, payload)
    return check


def _bounds_oracle(x: int):
    def check(payload):
        windows = _windows(_paper, x)
        j = len(windows)
        _count_report(x, windows, payload["count"])
        loglog = math.log((x.bit_length() - 1) * math.log(2))
        lower, upper = math.sqrt(loglog), 2 * math.sqrt(loglog) / math.sqrt(math.log(2))
        theta, bound = math.fsum(math.log(p) for p in _sympy_odd_primes(j)), 2 * j * math.log(j)
        window, chebyshev = payload["window"], payload["chebyshev"]
        assert (window["j"], window["holds"]) == (j, lower < j <= upper)
        assert math.isclose(window["lower"], lower) and math.isclose(window["upper"], upper)
        assert math.isclose(chebyshev["theta"], theta)
        assert (chebyshev["bound"], chebyshev["holds"]) == (bound, theta <= bound)
        bounds = {key: _oracle_fraction(payload[key]) for key in ("s1_bound", "s2_bound",
                                                                   "c_bound")}
        assert bounds == _sieve_bounds(x, windows)
        assert (payload["x"], payload["j"], payload["sqrt_check"], payload["b_lower_holds"]) == (
            x, j, 4**j <= x, True)
    return check


def _sumset_oracle(x: int):
    def check(payload):
        windows = _windows(_polynomial, x)
        j, top, lower = len(windows), *_sums(x, windows)
        c = len(top | lower)
        if x == 10**5:
            assert (c, len(top), len(top & lower)) == (9017, 395, 80)
        d = windows[-1][2]
        coprime = sum(math.gcd(n, d) == 1 for n in range(1, x + 1))
        assert {**payload, **{key: _oracle_fraction(payload[key]) for key in
                              ("s1_bound", "s2_bound", "c_bound")}} == {
            "x": x, "j": j, "c_count": c, "s1_count": len(top), "s2_count": c - len(top),
            "s1_overlap": len(top & lower), "s1_legendre": coprime, "density": c / x,
            "sqrt_check": 4**j <= x, **_sieve_bounds(x, windows)}
    return check


def _ratio_oracle(x: int):
    def check(point):
        windows = _windows(_polynomial, x)
        b, c = _b_count(windows), len(set.union(*_sums(x, windows)))
        ratio = Fraction(c, b)
        assert point == {"x": x, "b_count": b, "c_count": c,
                         "ratio": {"num": str(ratio.numerator), "den": str(ratio.denominator)}}
    return check


def _grid_oracle(point_oracle, kind: str, grid: tuple[int, ...]):
    """A grid run's payload: its schedule, and one point per x, each checked by its oracle."""
    def check(payload):
        points = payload["points"]
        assert payload == {"points": points, "schedule": {"kind": kind}}
        assert len(points) == len(grid)
        for x, point in zip(grid, points):
            point_oracle(x)(point)
    return check


def _uncovered(entries: list[dict]) -> tuple[int, list[int]]:
    """The lcm of the moduli, and each k below it that no class k = r (mod m) holds."""
    period = math.lcm(*(e["modulus"] for e in entries))
    return period, [k for k in range(period)
                    if not any(k % e["modulus"] == e["residue"] for e in entries)]


def _covering_verify_oracle(payload):
    entries = _shipped_entries()
    period, uncovered = _uncovered(entries)
    for e in entries:
        assert sympy.isprime(e["prime"]) and pow(2, e["modulus"], e["prime"]) == 1
    assert payload == {"covers": not uncovered, "lcm": period, "system": {"entries": entries},
                       "uncovered": uncovered}
    assert (period, uncovered) == (24, [])


def _check_certificate(entries: list[dict], residue: int, modulus: int) -> None:
    # every k falls in a class k = r (mod m) whose prime q divides 2^m - 1, so with
    # n = 2^r (mod q) each n - 2^k has the factor q; n odd keeps n - 2^k odd
    assert _uncovered(entries)[1] == []
    for e in entries:
        assert pow(2, e["modulus"], e["prime"]) == 1
        assert pow(2, e["residue"], e["prime"]) == residue % e["prime"]
    assert residue % 2 == 1 and modulus == 2 * math.prod(e["prime"] for e in entries)
    assert 0 < residue < modulus


def _covering_crt_oracle(payload):
    entries = _shipped_entries()
    _check_certificate(entries, payload["residue"], payload["modulus"])
    assert payload == {"residue": payload["residue"], "modulus": payload["modulus"],
                       "source": {"entries": entries}}


def _sieve_count_oracle(payload):
    count = int(sympy.primepi(10**6))
    assert (count, sympy.prevprime(10**6 + 1)) == (78_498, 999_983)
    assert payload == {"limit": 10**6, "prime_count": count, "odd_count": count - 1,
                       "largest_prime": 999_983}


def _mertens_oracle(payload):
    product = Fraction(1, 2)
    for p in _sympy_odd_primes(200):
        product *= 1 - Fraction(1, p)
    assert payload == {"j": 200, "include_two": True, "value": float(product),
                       "product": {"num": str(product.numerator),
                                   "den": str(product.denominator)}}


def _chebyshev_oracle(payload):
    theta = 0.0
    for p in _sympy_odd_primes(100):
        theta += math.log(p)
    bound = 2 * 100 * math.log(100)
    assert payload == {"j": 100, "theta": theta, "bound": bound, "holds": theta <= bound}


def _romanov_oracle(payload):
    limit, k_min = 100_000, 0  # k = 0 adds n = 3 = 2 + 2^0 to the k >= 1 count
    primes = set(sympy.primerange(limit + 1))
    odd = range(1, limit + 1, 2)
    hits = sum(any(n - 2**k in primes for k in range(k_min, n.bit_length())) for n in odd)
    assert hits == 46_607
    assert payload == {"k_min": k_min, "scan": {
        "exceptions": [], "limit": limit, "members_scanned": len(odd),
        "representable_fraction": hits / len(odd)}}


def _depolignac_scan_oracle(payload):
    residue, modulus = payload["certificate"]["residue"], payload["certificate"]["modulus"]
    _check_certificate(_shipped_entries(), residue, modulus)
    assert 10**6 < residue  # the first member lies past the limit
    assert payload == {"certificate": {"residue": residue, "modulus": modulus}, "k_min": 1,
                       "scan": {"exceptions": [], "limit": 10**6, "members_scanned": 0,
                                "representable_fraction": None}}


def _depolignac_audit_oracle(payload):
    # the shipped system covers, its certificate holds, and no member n <= 3*10^7 of the
    # progression is p + 2^k with k >= 1
    _covering_verify_oracle(payload["covering"])
    _covering_crt_oracle(payload["certificate"])
    residue, modulus = payload["certificate"]["residue"], payload["certificate"]["modulus"]
    members = range(residue, 30_000_000 + 1, modulus)
    assert len(members) == 3
    assert not any(sympy.isprime(n - 2**k) for n in members for k in range(1, n.bit_length()))
    assert payload == {"certificate": payload["certificate"], "covering": payload["covering"],
                       "k_min": 1, "scan": {"exceptions": [], "limit": 30_000_000,
                                            "members_scanned": len(members),
                                            "representable_fraction": None}}


def _experiment_list_oracle(payload):
    names = ["paper-chain", "desk-density", "depolignac-audit", "open-question"]
    assert payload == {"experiments": sorted(names)}


DECADES = (10**3, 10**4, 10**5, 10**6)
FROZEN_ORACLES = {
    "count-b --schedule paper --x 100000": _count_b_oracle(10**5),
    "count-b --schedule paper --x 2^70000": _count_b_oracle(2**70000),
    "bounds --schedule paper --x 2^600": _bounds_oracle(2**600),
    "bounds --schedule paper --x 2^70000": _bounds_oracle(2**70000),
    "sumset --schedule polynomial --x 100000": _sumset_oracle(10**5),
    "ratio-scan --schedule polynomial --grid 1000,10000,100000":
        _grid_oracle(_ratio_oracle, "polynomial", DECADES[:3]),
    "covering verify": _covering_verify_oracle,
    "covering crt": _covering_crt_oracle,
    "sieve-count --limit 1000000": _sieve_count_oracle,
    "mertens --j 200 --include-two": _mertens_oracle,
    "chebyshev --j 100": _chebyshev_oracle,
    "romanov-density --limit 100000 --k-min 0": _romanov_oracle,
    "depolignac scan --limit 1000000": _depolignac_scan_oracle,
    "experiment list": _experiment_list_oracle,
    "experiment run paper-chain":
        _grid_oracle(_bounds_oracle, "paper", (2**20, 2**100, 2**600, 2**1000)),
    "experiment run desk-density": _grid_oracle(_sumset_oracle, "polynomial", DECADES),
    "experiment run depolignac-audit": _depolignac_audit_oracle,
    "experiment run open-question": _grid_oracle(_ratio_oracle, "polynomial", DECADES),
}


class TestOutputContract:
    def test_out_file_and_round_trip(self, capsys, tmp_path):
        out = tmp_path / "record.json"
        code = run_command(
            ["count-b", "--schedule", "paper", "--x", "100000", "--out", str(out)]
        )
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert json.loads(json.dumps(record)) == record
        assert record["payload"]["b_count"] == 24141

    def test_payload_bytes_deterministic(self, capsys):
        argv = ["bounds", "--schedule", "paper", "--x", "2^100"]
        first = run_json(capsys, argv)["payload"]
        second = run_json(capsys, argv)["payload"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_csv_has_lossy_marker(self, capsys):
        code = run_command(["mertens", "--j", "3", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header.split(",")[-1] == "lossy"
        assert row.split(",")[-1] == "yes"  # the exact product was rendered as decimal

    def test_csv_points(self, capsys):
        code = run_command(
            ["ratio-scan", "--schedule", "polynomial", "--grid", "1000,10000", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + two grid points

    @pytest.mark.parametrize("argv,header", CSV_CASES.values(), ids=CSV_CASES.keys())
    def test_csv_columns_follow_report_fields(self, capsys, argv, header):
        payload = run_json(capsys, argv)["payload"]
        if isinstance(payload, dict) and "points" in payload:
            payload = payload["points"]
        keys = list(payload[0] if isinstance(payload, list) else payload)
        assert run_command([*argv, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        columns = lines[0].split(",")
        # JSON sorts its keys; CSV columns keep the report's field order
        assert sorted(columns[:-1]) == sorted(keys) and columns[-1] == "lossy"
        assert all(len(line.split(",")) == len(columns) for line in lines[1:])
        if header is not None:
            assert lines[0] == header

    @pytest.mark.parametrize("command", FROZEN_OUTPUT)
    def test_output_bytes_are_frozen(self, capsys, command):
        json_digest, csv_digest = FROZEN_OUTPUT[command]
        assert run_command(command.split()) == EXIT_OK
        members = record_members(capsys.readouterr().out)
        assert set(members) == {"config", "name", "payload", "timing", "versions"}
        frozen = (members["config"] + members["payload"]).encode()
        assert hashlib.sha256(frozen).hexdigest() == json_digest
        assert run_command([*command.split(), "--format", "csv"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == csv_digest

    def test_every_frozen_call_has_an_oracle(self):
        assert set(FROZEN_ORACLES) == set(FROZEN_OUTPUT)

    @pytest.mark.parametrize("command", FROZEN_ORACLES)
    def test_frozen_payloads_match_independent_oracles(self, capsys, command):
        assert run_command(command.split()) == EXIT_OK
        FROZEN_ORACLES[command](_oracle_loads(capsys.readouterr().out)["payload"])

    def test_result_record_encodes_library_objects(self):
        report = _Report(x=10, ratio=Fraction(3, 7), bound=None)
        check = _Check(holds=True, witnesses=((5, 3, 1), (7, 5, 1)))
        system = default_covering_system()
        cert = crt_combine(system)
        config = {"schedule": {"kind": "paper"}, "x": 10, "step": Fraction(-1, 2)}
        payload = {
            "report": report,
            "nested": {"check": check, "pair": (Fraction(1, 3), 2), "system": system},
            "certificate": cert,
        }
        # spelled out field by field
        entries = [{"residue": e.residue, "modulus": e.modulus, "prime": e.prime}
                   for e in system.entries]
        expected_config = {"schedule": {"kind": "paper"}, "x": 10,
                           "step": fraction_payload(Fraction(-1, 2))}
        expected = {
            "report": {"x": 10, "ratio": fraction_payload(Fraction(3, 7)), "bound": None},
            "nested": {
                "check": {"holds": True, "witnesses": [[5, 3, 1], [7, 5, 1]]},
                "pair": [fraction_payload(Fraction(1, 3)), 2],
                "system": {"entries": entries},
            },
            "certificate": {"residue": cert.residue, "modulus": cert.modulus,
                            "source": {"entries": entries}},
        }
        record = result_record("unit", config, payload, {"total": 0.5})
        # the record holds the objects; payload_json encodes them when it is written
        assert record["config"] is config and record["payload"] is payload
        out = written(record)
        assert out["config"] == expected_config
        assert out["payload"] == expected
        assert list(report_payload(payload)["report"]) == ["x", "ratio", "bound"]
        assert out["timing"] == {"total": 0.5}
        again = written(result_record("unit", out["config"], out["payload"]))
        assert again["config"] == expected_config and again["payload"] == expected

    @pytest.mark.parametrize(
        "command,parser", LEAVES, ids=[command.replace(" ", "-") for command, _ in LEAVES]
    )
    def test_every_subcommand_has_a_handler_and_output_flags(self, command, parser):
        assert callable(cli._handler(command))
        assert parser._option_string_actions["--out"].default is None
        assert parser._option_string_actions["--format"].choices == ("json", "csv")

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("j", [1500, 3000, 10_000])
    def test_mertens_prints_products_past_the_digit_limit(self, capsys, j):
        record = run_json(capsys, ["mertens", "--j", str(j)])
        product = mertens_product(first_odd_primes(j))
        assert record["payload"]["product"] == fraction_payload(product)
        assert len(record["payload"]["product"]["den"]) > 4300
        assert run_command(["mertens", "--j", str(j), "--format", "csv"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == row[3] == f"{float(product):.15g}"

    def test_rational_payloads_round_trip_at_any_size(self):
        value = Fraction(7**20_000 + 1, 3**15_000)
        assert rational(fraction_payload(value)) == value
        assert fraction_payload(Fraction(-120698, 5)) == {"num": "-120698", "den": "5"}

    def test_rationals_serialize_as_string_pairs(self, capsys):
        record = run_json(capsys, ["count-b", "--schedule", "paper", "--x", "100000"])
        bound = record["payload"]["b_lower_bound"]
        assert isinstance(bound["num"], str) and isinstance(bound["den"], str)
        assert bound == {"num": "120698", "den": "5"}


def library_report(command: str, schedule: str, x: int):
    """The report ``count-b``/``bounds`` should print at x, computed by the library directly."""
    blocks = BlockSet.covering(GrowthSchedule(schedule), x)
    if command == "count-b":
        return conjecture_ratio(x, blocks)
    return bound_chain_point(x, blocks)


class TestContractSizes:
    """Records holding integers of more than 4300 digits, up to the 10^6-bit budget."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "command,schedule,x",
        [
            ("count-b", "paper", "2^20000"),
            ("count-b", "paper", "2^70000"),
            ("bounds", "paper", "2^20000"),
            ("bounds", "paper", "2^70000"),
            ("bounds", "polynomial", "2^20000"),
        ],
    )
    def test_record_matches_library(self, capsys, command, schedule, x, fmt):
        argv = [command, "--schedule", schedule, "--x", x, "--format", fmt]
        assert run_command(argv) == EXIT_OK
        out = capsys.readouterr().out
        expected = library_report(command, schedule, parse_power_expr(x))
        if fmt == "json":
            record = loads(out)
            assert record["config"]["x"] == parse_power_expr(x)
            assert record["payload"] == report_payload(expected)
        else:
            assert out == payload_csv(expected)

    def test_decimal_x_at_the_top_of_the_budget(self, capsys):
        # 2^999999 - 1 has 301,030 decimal digits, all read from --x
        x = 2**999_999 - 1
        argv = ["count-b", "--schedule", "paper", "--x", str(int_decimal(x))]
        payload = run_json(capsys, argv)["payload"]
        report = conjecture_ratio(x, BlockSet.covering(GrowthSchedule.paper(), x))
        assert sorted(payload) == sorted(field.name for field in dataclasses.fields(report))
        for name, value in payload.items():
            expected = getattr(report, name)
            if isinstance(expected, Fraction):
                value = rational(value)
            assert value == expected, name

    def test_out_record_reads_back(self, capsys, tmp_path):
        out = tmp_path / "record.json"
        argv = ["count-b", "--schedule", "paper", "--x", "2^70000", "--out", str(out)]
        assert run_command(argv) == EXIT_OK
        record = loads(out.read_text())
        assert record["payload"] == report_payload(library_report("count-b", "paper", 2**70000))

    @pytest.mark.parametrize("command", ["count-b", "bounds"])
    def test_records_at_the_top_of_the_budget_match_the_library(self, capsys, command):
        # the run and this process both keep the interpreter's int<->str digit limit
        x = 2**999_999
        argv = [command, "--schedule", "paper", "--x", "2^999999"]
        assert run_command(argv) == EXIT_OK
        out = capsys.readouterr().out
        record = loads(out)
        report = library_report(command, "paper", x)
        assert record["payload"] == report_payload(report)
        config = {"schedule": {"kind": "paper"}, "x": x}
        assert out == payload_json(result_record(command, config, report, record["timing"]))
        assert run_command([*argv, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == payload_csv(report)

    @pytest.mark.parametrize(
        "flag,template,what",
        [
            ("schedule", '{"kind": "custom", "exponents": [1, %s]}', "integer literal"),
            ("schedule", '{"kind": "custom", "exponents": [1, "%s"]}', "schedule exponent"),
            ("system", '{"entries": [{"residue": %s, "modulus": 2, "prime": 3}]}',
             "integer literal"),
            ("config", '{"name": "x", "kind": "romanov", "limit": 1000, "k_min": %s}',
             "integer literal"),
        ],
        ids=["schedule", "schedule-string", "system", "config"],
    )
    def test_integer_past_the_budget_in_a_file_is_capacity_error(self, capsys, tmp_path, flag,
                                                                 template, what):
        # refused by its length, before int() reads its 333,336 digits
        path = tmp_path / "input.json"
        path.write_text(template % ("9" * (MAX_DECIMAL_DIGITS + 1)))
        argv = {
            "config": ["experiment", "run", str(path)],
            "system": ["covering", "verify", "--system", str(path)],
            "schedule": ["count-b", "--schedule", str(path), "--x", "1000"],
        }[flag]
        assert run_command(argv) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            f"capacity error: {what} of 333336 digits exceeds the 1000000-bit budget\n")

    READERS = (
        (["mertens", "--j", "DIGITS"], None, "integer option"),
        (["romanov-density", "--limit", "1000", "--k-min", "DIGITS"], None, "integer option"),
        (["sumset", "--schedule", "polynomial", "--x", "1000", "--budget", "DIGITS"], None,
         "integer option"),
        (["depolignac", "scan", "--limit", "1000", "--residue", "DIGITS", "--modulus", "3"],
         None, "integer option"),
        (["depolignac", "scan", "--limit", "1000", "--residue", "1", "--modulus", "DIGITS"],
         None, "integer option"),
        (["count-b", "--schedule", "paper", "--x", "DIGITS"], None, "decimal literal"),
        (["ratio-scan", "--schedule", "polynomial", "--grid", "1000,DIGITS"], None,
         "decimal literal"),
        (["sieve-count", "--limit", "DIGITS"], None, "decimal literal"),
        (["experiment", "run", "FILE"],
         '{"name": "g", "kind": "bounds", "schedule": {"kind": "paper"}, "x_grid": [DIGITS]}',
         "integer literal"),
        (["experiment", "run", "FILE"],
         '{"name": "g", "kind": "bounds", "schedule": {"kind": "paper"}, '
         '"x_grid": ["DIGITS"]}', "decimal literal"),
        (["experiment", "run", "FILE"], '{"name": "l", "kind": "romanov", "limit": DIGITS}',
         "integer literal"),
        (["experiment", "run", "FILE"], '{"name": "l", "kind": "romanov", "limit": "DIGITS"}',
         "decimal literal"),
        (["experiment", "run", "FILE"],
         '{"name": "k", "kind": "romanov", "limit": 1000, "k_min": "DIGITS"}', "k_min"),
        (["experiment", "run", "FILE"],
         '{"name": "e", "kind": "romanov", "limit": 1000, '
         '"budgets": {"enumeration": "DIGITS"}}', "enumeration"),
        (["count-b", "--schedule", "FILE", "--x", "1000"],
         '{"kind": "custom", "exponents": [1, DIGITS]}', "integer literal"),
        (["count-b", "--schedule", "FILE", "--x", "1000"],
         '{"kind": "custom", "exponents": [1, "DIGITS"]}', "schedule exponent"),
        (["covering", "verify", "--system", "FILE"],
         '{"entries": [{"residue": "DIGITS", "modulus": 2, "prime": 3}]}',
         "covering entry field"),
        (["sumset", "--schedule", "polynomial", "--x", "1000"], "env", "SUMSETLAB_ENUM_CAP"),
    )
    READER_IDS = ("j", "k-min", "budget", "residue", "modulus", "x", "grid", "limit",
                  "config-x-grid", "config-x-grid-string", "config-limit", "config-limit-string",
                  "config-k-min", "config-enumeration", "schedule-exponent",
                  "schedule-exponent-string", "covering-entry-field", "enum-cap-env")

    @pytest.mark.parametrize(
        "argv,source,what,digits,size",
        [pytest.param(*reader, "9" * (MAX_DECIMAL_DIGITS + 1), "333336 digits", id=name)
         for reader, name in zip(READERS, READER_IDS)]
        # 301,031 digits pass the length rule, but 10^301030 needs 1,000,001 bits
        + [pytest.param(*reader, "1" + "0" * 301_030, "1000001 bits", id=f"{name}-bits")
           for reader, name in zip(READERS, READER_IDS)],
    )
    def test_integer_text_past_the_budget_exits_3_wherever_it_is_written(
            self, capsys, tmp_path, monkeypatch, argv, source, what, digits, size):
        # one rule, in errors.json_int: text of more than MAX_DECIMAL_DIGITS is never read,
        # and a value of more than DEFAULT_BIT_BUDGET bits is never kept
        path = tmp_path / "input.json"
        if source == "env":
            monkeypatch.setenv(cli.ENUM_CAP_ENV, digits)
        elif source is not None:
            path.write_text(source.replace("DIGITS", digits))
        argv = [str(path) if arg == "FILE" else arg.replace("DIGITS", digits) for arg in argv]
        assert run_command(argv) == EXIT_CAPACITY
        assert capsys.readouterr() == ("", f"capacity error: {what} of {size} exceeds "
                                           "the 1000000-bit budget\n")

    @pytest.mark.parametrize(
        "residue,modulus,prime",
        [
            ("1" + "0" * 5000, "1", "3"),
            ("1", "-1" + "0" * 5000, "3"),
            ("1" + "0" * 5000, "2", "9"),  # composite, below the Miller-Rabin bound
            ("0", "1" + "0" * 4999 + "1", "3"),  # 3 divides 2^m - 1 for even m only
        ],
        ids=["modulus-below-2", "huge-negative-modulus", "composite-prime", "huge-odd-modulus"],
    )
    def test_invalid_entry_message_is_short(self, capsys, tmp_path, residue, modulus, prime):
        # each field is named through int_name and the entry by its index
        path = tmp_path / "system.json"
        path.write_text('{"entries": [{"residue": %s, "modulus": %s, "prime": %s}]}'
                        % (residue, modulus, prime))
        assert run_command(["covering", "verify", "--system", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "in entry 0" in err
        assert len(err) < 200, err

    def test_huge_negative_modulus_keeps_its_sign(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text('{"entries": [{"residue": 1, "modulus": -1%s, "prime": 3}]}' % ("0" * 5000))
        assert run_command(["covering", "verify", "--system", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: negative modulus of 16610 bits < 2 in entry 0\n"
        )

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["depolignac", "scan", "--residue", "1" * 5001, "--modulus", "3"], EXIT_CONFIG),
            (["depolignac", "scan", "--residue", "1" + "0" * 4000, "--modulus", "3"], EXIT_CONFIG),
            (["depolignac", "scan", "--residue", "2" + "0" * 5000, "--modulus", "3" + "0" * 5000],
             EXIT_CONFIG),
            (["depolignac", "scan", "--residue", "3", "--modulus", "1" * 5001], EXIT_OK),
            (["depolignac", "scan", "--k-min", "1" * 5001], EXIT_OK),
            (["romanov-density", "--k-min", "1" * 5001], EXIT_OK),
            (["mertens", "--j", "1" * 5001], EXIT_CAPACITY),
            (["chebyshev", "--j", "1" * 5001], EXIT_CAPACITY),
            (["sumset", "--schedule", "polynomial", "--x", "1000", "--budget", "1" * 5001],
             EXIT_OK),
            (["mertens", "--j", "9" * (MAX_DECIMAL_DIGITS + 1)], EXIT_CAPACITY),
            (["mertens", "--j", "1" * 5000 + "x"], EXIT_USAGE),
        ],
        ids=["residue-past-modulus", "residue-10^4000", "even-residue", "huge-modulus",
             "scan-k-min", "romanov-k-min", "mertens-j", "chebyshev-j", "budget",
             "past-the-digit-bound", "not-an-integer"],
    )
    def test_integer_option_of_many_digits(self, capsys, argv, code):
        # read in full at the interpreter's digit limit: the exit code is the one the value earns
        if argv[0] in ("depolignac", "romanov-density"):
            argv = [*argv, "--limit", "1000"]
        assert run_command(argv) == code
        err = capsys.readouterr().err
        assert len(err) < 200, err
        assert (err == "") == (code == EXIT_OK), err

    def test_mertens_j_is_held_to_the_modulus_budget(self, capsys):
        # the product's terms are d_j = prod p and prod (p - 1); d_56116 is the last of them
        # inside 10^6 bits, and a longer --j is refused without sieving its primes
        assert run_command(["mertens", "--j", "56116", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("56116,False,")
        for j in ("56117", "100000", "9" * 30):
            start = time.perf_counter()
            assert run_command(["mertens", "--j", j]) == EXIT_CAPACITY
            assert time.perf_counter() - start < 1
            assert capsys.readouterr().err == (
                "capacity error: d_56117 needs 1000011 bits, over the 1000000-bit budget\n"
            )

    def test_integer_inside_the_budget_in_a_file_parses(self, capsys, tmp_path):
        residue = 10**5000
        path = tmp_path / "system.json"
        path.write_text('{"entries": [{"residue": %s, "modulus": 2, "prime": 3}, '
                        '{"residue": 1, "modulus": 4, "prime": 5}]}' % int_decimal(residue))
        record = run_json(capsys, ["covering", "verify", "--system", str(path)])
        assert record["payload"]["system"]["entries"][0]["residue"] == residue
        assert record["payload"]["uncovered"] == [3]


class TestExperimentConfigs:
    def test_config_json_round_trip(self):
        custom = ExperimentConfig(
            name="custom-system", kind="depolignac", limit=10**6, k_min=3,
            system=CoveringSystem.from_entries([(1, 2, 3), (2**70, 4, 5), (-7, 3, 7)]))
        for config in [*map(builtin_experiment, BUILTIN_EXPERIMENTS), custom]:
            assert ExperimentConfig.from_json(config.to_json()) == config

    def test_config_file_with_power_expressions(self, capsys, tmp_path):
        spec = {
            "name": "tiny",
            "kind": "ratio-scan",
            "schedule": {"kind": "polynomial"},
            "x_grid": ["2^10", "2^12"],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        record = run_json(capsys, ["experiment", "run", str(path)])
        assert [p["x"] for p in record["payload"]["points"]] == [1024, 4096]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", kind="nonsense")

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ConfigError, match="^unknown experiment 'nope'; built-ins: "
                                              "depolignac-audit, desk-density, open-question, "
                                              "paper-chain$"):
            builtin_experiment("nope")

    def test_each_kind_refuses_a_config_without_what_it_needs(self):
        for kind in ("bounds", "sumset", "ratio-scan"):
            with pytest.raises(ConfigError, match="^experiment 'e' needs a schedule$"):
                ExperimentConfig(name="e", kind=kind, x_grid=(1000,))
            with pytest.raises(ConfigError, match="^experiment 'e' needs a non-empty x_grid$"):
                ExperimentConfig(name="e", kind=kind, schedule=GrowthSchedule.paper())
        for kind in ("depolignac", "romanov"):
            with pytest.raises(ConfigError, match="^experiment 'e' needs a limit$"):
                ExperimentConfig(name="e", kind=kind)
        for name in BUILTIN_EXPERIMENTS:
            config = builtin_experiment(name)
            missing = {"x_grid": ()} if config.x_grid else {"limit": None}
            with pytest.raises(ConfigError, match=f"^experiment '{name}' needs a "):
                dataclasses.replace(config, **missing)

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                name="x", kind="ratio-scan", x_grid=(100, 10),
            )

    def test_depolignac_run_scans_its_system_once(self, monkeypatch):
        from sumsetlab import depolignac

        # covering_verify checks the lcm just before it scans every residue below it
        scans = []
        check = depolignac.check_sieve_limit

        def counting(limit, what="sieve limit"):
            scans.append(what)
            return check(limit, what)

        monkeypatch.setattr(depolignac, "check_sieve_limit", counting)
        depolignac.crt_combine.cache_clear()  # combined afresh, as in a new process
        config = dataclasses.replace(builtin_experiment("depolignac-audit"), limit=10**6)
        payload = written(run_experiment(config))["payload"]
        assert scans.count("covering lcm") == 1
        assert (payload["covering"]["covers"], payload["covering"]["uncovered"]) == (True, [])

    def test_run_experiment_record_shape(self):
        record = run_experiment(builtin_experiment("open-question"))
        assert set(record) == {"name", "config", "payload", "timing", "versions"}
        assert record["name"] == "open-question"

    def test_experiment_record_round_trips_losslessly(self):
        record = run_experiment(builtin_experiment("paper-chain"))
        out = written(record)
        assert out == report_payload(record)
        # rationals survive as exact string pairs even at 1000-bit scale
        bound = out["payload"]["points"][-1]["count"]["b_lower_bound"]
        assert int(bound["num"]) > 2**900
        assert rational(bound) == record["payload"]["points"][-1]["count"].b_lower_bound


def _fresh_python(*argv: str, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter on ``argv`` in a new process that imports sumsetlab from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **(env or {})}
    return subprocess.run([sys.executable, *argv], env=env, text=True, **kwargs)


def _record_without_timing(text: str) -> dict:
    record = json.loads(text)
    del record["timing"]
    return record


@pytest.mark.parametrize(
    "argv",
    [
        ["--limit", "50000000"],
        ["--residue", "7629217", "--modulus", "11184810", "--limit", "30000000", "--k-min", "2"],
        ["--system", "SHIFTED", "--limit", "50000000"],
    ],
    ids=["certificate", "residue", "system"],
)
def test_repeated_scans_print_what_a_fresh_process_prints(capsys, tmp_path, argv):
    # the certificate is built once per process; later runs in it must not differ
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({"entries": [
        {"residue": (e.residue + 5) % e.modulus, "modulus": e.modulus, "prime": e.prime}
        for e in default_covering_system().entries
    ]}))
    argv = ["depolignac", "scan", *(str(path) if a == "SHIFTED" else a for a in argv)]
    fresh = _fresh_python("-m", "sumsetlab.cli", *argv, capture_output=True, check=True)
    for _ in range(3):
        assert run_command(argv) == EXIT_OK
        assert _record_without_timing(capsys.readouterr().out) == (
            _record_without_timing(fresh.stdout)
        )


_STARTED = ["sumsetlab", "sumsetlab._version"]
_CLI = sorted([*_STARTED, "sumsetlab.cli", "sumsetlab.errors"])
_SCANS = sorted([*_CLI, "sumsetlab.arith", "sumsetlab.depolignac", "sumsetlab.serialize"])
_LAYERS = sorted([*_SCANS, "sumsetlab.blocks", "sumsetlab.experiments", "sumsetlab.sumset"])
_PRIMES = sorted([*_CLI, "sumsetlab.arith", "sumsetlab.serialize"])
_REPORTS = sorted([*_PRIMES, "sumsetlab.blocks", "sumsetlab.sumset"])  # the per-x reports

# One fresh interpreter per sequence, its commands run in order: each step is
# (argv, exit code, sumsetlab modules loaded by then, whether numpy is loaded).
# The first two sequences end on sieve-count, which shows that the probe tells
# the numpy cases apart; the Romanov side loads no block set, sumset or
# experiment, and the block set and the bound chain take their few primes
# from a bytearray sieve.
_STARTUP_SEQUENCES = {
    "sparse commands": [
        (["--version"], 0, _CLI, False),
        (["--help"], 0, _CLI, False),
        (["count-b"], EXIT_USAGE, _CLI, False),
        (["covering", "verify"], 0, _SCANS, False),
        (["covering", "crt"], 0, _SCANS, False),
        (["depolignac", "scan", "--limit", "50000000"], 0, _SCANS, False),
        (["depolignac", "scan", "--residue", "7629217", "--modulus", "11184810",
          "--limit", "300000000"], 0, _SCANS, False),
        (["experiment", "list"], 0, _LAYERS, False),
        (["experiment", "run", "depolignac-audit"], 0, _LAYERS, False),
        (["sieve-count", "--limit", "1000"], 0, _LAYERS, True),
    ],
    "block set and bound chain": [
        (["mertens", "--j", "8"], 0, _PRIMES, False),
        (["chebyshev", "--j", "8"], 0, _PRIMES, False),
        (["count-b", "--schedule", "paper", "--x", "2^1000"], 0,
         sorted([*_PRIMES, "sumsetlab.blocks"]), False),
        (["bounds", "--schedule", "paper", "--x", "2^600"], 0, _REPORTS, False),
        (["experiment", "run", "paper-chain"], 0, _LAYERS, False),
        (["sieve-count", "--limit", "1000"], 0, _LAYERS, True),
    ],
    "sieve-count": [(["sieve-count", "--limit", "1000"], 0, _PRIMES, True)],
    "romanov-density": [(["romanov-density", "--limit", "1000"], 0, _SCANS, True)],
}

_STARTUP_PROBE = """
import contextlib, io, json, sys

def step(name, code):
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "sumsetlab")
    steps.append([name, code, loaded, "numpy" in sys.modules])

steps = []
import sumsetlab
step("import sumsetlab", 0)
import sumsetlab.cli
step("import sumsetlab.cli", 0)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = sumsetlab.cli.run_command(argv)
    step(" ".join(argv), code)
print(json.dumps(steps))
"""


def test_startup_and_sparse_commands_load_no_numpy():
    # this process already holds numpy and every layer, so the probe runs in a fresh one
    for sequence, commands in _STARTUP_SEQUENCES.items():
        argvs = json.dumps([argv for argv, *_ in commands])
        done = _fresh_python("-c", _STARTUP_PROBE, argvs, capture_output=True, check=True)
        assert json.loads(done.stdout) == [
            ["import sumsetlab", 0, _STARTED, False],
            ["import sumsetlab.cli", 0, _CLI, False],
            *([" ".join(argv), *expected] for argv, *expected in commands),
        ], sequence


_PACKAGE_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
import sumsetlab

star = {}
exec("from sumsetlab import *", star)
del star["__builtins__"]

def home(name, obj):
    return "sumsetlab._version" if name == "__version__" else obj.__module__

print(json.dumps({
    "star": sorted(star),
    "all": sorted(sumsetlab.__all__),
    "homes": sorted({home(name, obj) for name, obj in star.items()}),
    "not_home": [name for name, obj in star.items()
                 if getattr(importlib.import_module(home(name, obj)), name) is not obj],
    "not_in_dir": sorted(set(sumsetlab.__all__) - set(dir(sumsetlab))),
    "unknown_found": hasattr(sumsetlab, "no_such_name"),
}))
"""

_MODULES = ["_version", "arith", "blocks", "cli", "depolignac", "errors", "experiments",
            "serialize", "sumset"]


@pytest.mark.parametrize("module", _MODULES)
def test_each_module_imports_first_and_the_lazy_package_is_complete(module):
    # every module imports on its own, whatever the package loaded before it
    done = _fresh_python("-c", _PACKAGE_PROBE, f"sumsetlab.{module}", capture_output=True)
    assert done.returncode == 0, done.stderr
    facts = json.loads(done.stdout)
    assert facts["star"] == facts["all"]
    assert len(facts["all"]) == len(set(facts["all"])) > 40
    assert set(facts["homes"]) <= {f"sumsetlab.{m}" for m in _MODULES}
    assert facts["not_home"] == [] and facts["not_in_dir"] == []
    assert not facts["unknown_found"]


_LOOKUP_PROBE = """
import json, sys
import sumsetlab
try:
    getattr(sumsetlab, sys.argv[1])
except AttributeError:
    found = False
else:
    found = True
print(json.dumps([found, sorted(m for m in sys.modules if m.startswith("sumsetlab."))]))
"""

_ERRORS = ["sumsetlab._version", "sumsetlab.errors"]
_BLOCKS = sorted([*_ERRORS, "sumsetlab.arith", "sumsetlab.blocks"])
_ALL_LAYERS = sorted([*_BLOCKS, "sumsetlab.depolignac", "sumsetlab.sumset"])


@pytest.mark.parametrize(
    "name,found,loaded",
    [
        ("ConfigError", True, _ERRORS),
        ("count_b", True, _BLOCKS),
        ("split_s1_s2", True, sorted([*_BLOCKS, "sumsetlab.sumset"])),
        ("ap_scan", True, _ALL_LAYERS),
        ("_private", False, ["sumsetlab._version"]),
        ("__wrapped__", False, ["sumsetlab._version"]),
        ("no_such_name", False, _ALL_LAYERS),
    ],
)
def test_a_lookup_imports_the_layers_up_to_the_one_that_exports_the_name(name, found, loaded):
    # the layers are searched in import order, and a _-prefixed name in none of them
    done = _fresh_python("-c", _LOOKUP_PROBE, name, capture_output=True, check=True)
    assert json.loads(done.stdout) == [found, loaded]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["count-b", "--schedule", "paper", "--x", "100000"],
        ["count-b", "--schedule", "paper", "--x", "100000", "--format", "csv"],
        ["--version"],
    ],
    ids=["json", "csv", "version"],
)
def test_closed_stdout_pipe_ends_quietly(argv, unbuffered):
    # stdout is a pipe whose reader has already exited; an empty PYTHONUNBUFFERED is unset
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {"PYTHONUNBUFFERED": "1" if unbuffered else ""}
    try:
        done = _fresh_python("-m", "sumsetlab.cli", *argv, env=env,
                             stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, "")
