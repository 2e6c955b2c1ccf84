"""README's two library-tour blocks run as written and give the values their comments state,
and its custom-experiment file runs as written."""

import json
import re
from fractions import Fraction
from pathlib import Path

from sumsetlab.experiments import ExperimentConfig, run_experiment

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.S)
CONFIGS = re.findall(r"```json\n(.*?)```", README, flags=re.S)

# (block, a line's code, text in that line's comment, expression checked, its value)
CLAIMS = [
    (0, "sl.count_b(100_000, blocks)", "24141", "sl.count_b(100_000, blocks)", 24141),
    (
        0,
        "sl.count_b_lower_bound(100_000, blocks)",
        "Fraction(120698, 5)",
        "sl.count_b_lower_bound(100_000, blocks)",
        Fraction(120698, 5),
    ),
    (0, "blocks.level(2).below", "21844", "blocks.level(2).below", 21844),
    (0, "blocks.level(2).below", "21844", "sl.count_b(2**16 - 1, blocks)", 21844),
    (0, "blocks.level(2).first", "65550", "blocks.level(2).first", 65550),
    (1, "cert = sl.crt_combine(system)", "residue 7629217", "cert.residue", 7629217),
    (1, "cert = sl.crt_combine(system)", "modulus 11184810", "cert.modulus", 11184810),
]


def commented_lines(block: str) -> list[tuple[str, str]]:
    return [
        (code.strip(), comment)
        for code, _, comment in (line.partition("#") for line in block.splitlines())
    ]


def test_two_python_blocks():
    assert len(BLOCKS) == 2


def test_blocks_give_the_stated_values():
    # the second block goes on from the first (it uses ``sl``), so they share one namespace
    namespace: dict = {}
    for index, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), namespace)
    for index, code, stated, expression, value in CLAIMS:
        assert any(
            line_code == code and stated in comment
            for line_code, comment in commented_lines(BLOCKS[index])
        ), f"README no longer states {stated!r} on {code!r}"
        assert eval(expression, namespace) == value, expression


def test_custom_experiment_runs_as_written():
    (config,) = CONFIGS
    record = run_experiment(ExperimentConfig.from_json(json.loads(config)))
    assert [point.x for point in record["payload"]["points"]] == [2**10, 2**14, 100_000]
