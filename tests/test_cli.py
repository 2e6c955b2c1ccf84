import argparse
import json

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from sumsetlab import cli
from sumsetlab.cli import EXIT_CAPACITY, EXIT_CONFIG, EXIT_OK, EXIT_USAGE, run_command
from sumsetlab.errors import CapacityError, ConfigError
from sumsetlab.experiments import (
    BUILTIN_EXPERIMENTS,
    ExperimentConfig,
    builtin_experiment,
    parse_power_expr,
    run_experiment,
)


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    return json.loads(out)


def leaf_parsers(parser, path=()):
    """(command path, parser) for every leaf subcommand under ``parser``."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return [(" ".join(path), parser)]
    choices = actions[0].choices.items()
    return [leaf for name, sub in choices for leaf in leaf_parsers(sub, (*path, name))]


LEAVES = leaf_parsers(cli.build_parser())


class TestParsePowerExpr:
    @pytest.mark.parametrize(
        "text,expected",
        [("2^20", 1048576), ("2^(2^4)", 65536), ("12345", 12345), (" 2^3 ", 8)],
    )
    def test_valid_forms(self, text, expected):
        assert parse_power_expr(text) == expected

    @pytest.mark.parametrize("text", ["banana", "2^", "2^(3^4)", "-5", "2^2^2"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_power_expr(text)

    def test_bit_budget(self):
        for text in ("2^1000000", "2^(2^20)", "2^(2^30)", "2^(2^99999999999999)"):
            with pytest.raises(CapacityError):
                parse_power_expr(text)
        assert parse_power_expr("2^999999") == 1 << 999999
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
        assert payload == run_experiment(config)["payload"]["points"][index]

    def test_romanov_density_matches_experiment(self, capsys):
        argv = ["romanov-density", "--limit", "100000", "--k-min", "0"]
        payload = run_json(capsys, argv)["payload"]
        config = ExperimentConfig(name="romanov", kind="romanov", limit=100000, k_min=0)
        assert payload == run_experiment(config)["payload"]


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_command(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_command(["count-b", "--x", "10"]) == EXIT_USAGE

    def test_malformed_x_is_config_error(self, capsys):
        assert run_command(["count-b", "--schedule", "paper", "--x", "banana"]) == EXIT_CONFIG

    def test_bad_schedule_is_config_error(self, capsys):
        assert run_command(["count-b", "--schedule", "fancy", "--x", "10"]) == EXIT_CONFIG

    def test_budget_violation_is_capacity_error(self, capsys):
        code = run_command(
            ["sumset", "--schedule", "polynomial", "--x", "100000", "--budget", "100"]
        )
        assert code == EXIT_CAPACITY

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
        "argv",
        [
            ["sieve-count", "--limit", "2^34"],
            ["romanov-density", "--limit", "2^34"],
            ["depolignac", "scan", "--limit", "2^34"],
            ["depolignac", "scan", "--residue", "1", "--modulus", "2", "--limit", "2^40"],
        ],
    )
    def test_scan_limit_cap_is_capacity_error(self, capsys, argv):
        # the cap fires before anything is allocated
        assert run_command(argv) == EXIT_CAPACITY
        assert "capacity error" in capsys.readouterr().err

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

    def test_out_write_failure_is_config_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "record.json"
        argv = ["count-b", "--schedule", "paper", "--x", "100000", "--out", str(out)]
        assert run_command(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

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

    def test_system_with_explicit_progression_is_config_error(self, capsys, tmp_path):
        # rejected before the file is read, so a missing file is not silently ignored
        argv = ["depolignac", "scan", "--system", str(tmp_path / "missing.json"),
                "--residue", "1", "--modulus", "2", "--limit", "50"]
        assert run_command(argv) == EXIT_CONFIG
        assert "--system" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "argv,header",
        [
            (["count-b", "--schedule", "paper", "--x", "100000"],
             "x,j,b_count,a_count,b_lower_bound,ratio_exact,conjecture_ratio,lossy"),
            (["sumset", "--schedule", "polynomial", "--x", "1000"],
             "x,j,c_count,s1_count,s2_count,s1_overlap,density,sqrt_check,"
             "s1_bound,s2_bound,c_bound,s1_legendre,lossy"),
        ],
        ids=["count-b", "sumset"],
    )
    def test_csv_columns_follow_report_fields(self, capsys, argv, header):
        assert run_command([*argv, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == header

    @pytest.mark.parametrize(
        "command,parser", LEAVES, ids=[command.replace(" ", "-") for command, _ in LEAVES]
    )
    def test_every_subcommand_has_a_handler_and_output_flags(self, command, parser):
        assert callable(cli._handler(command))
        assert parser._option_string_actions["--out"].default is None
        assert parser._option_string_actions["--format"].choices == ("json", "csv")

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_rationals_serialize_as_string_pairs(self, capsys):
        record = run_json(capsys, ["count-b", "--schedule", "paper", "--x", "100000"])
        bound = record["payload"]["b_lower_bound"]
        assert isinstance(bound["num"], str) and isinstance(bound["den"], str)
        assert bound == {"num": "120698", "den": "5"}


class TestExperimentConfigs:
    def test_config_json_round_trip(self):
        config = builtin_experiment("paper-chain")
        again = ExperimentConfig.from_json(config.to_json())
        assert again == config

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

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                name="x", kind="ratio-scan", x_grid=(100, 10),
            )

    def test_run_experiment_record_shape(self):
        record = run_experiment(builtin_experiment("open-question"))
        assert set(record) == {"name", "config", "payload", "timing", "versions"}
        assert record["name"] == "open-question"

    def test_experiment_record_round_trips_losslessly(self):
        record = run_experiment(builtin_experiment("paper-chain"))
        assert json.loads(json.dumps(record)) == record
        # rationals survive as exact string pairs even at 1000-bit scale
        last = record["payload"]["points"][-1]
        assert int(last["count"]["b_lower_bound"]["num"]) > 2**900
