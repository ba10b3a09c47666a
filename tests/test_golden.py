"""CLI `--json` output pinned byte for byte against committed golden files.

The commands are the README examples, the benchmark's CLI command set and
the further cases commented below, two of them run under a config file. To
rewrite the goldens after an intended output change, run
`PYTHONPATH=src python tests/test_golden.py --regenerate` from the
repository root and check the result with `git diff`.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from anaburnside.cli import main
from anaburnside.engine import alternating, densify

from groupfiles import write_table_file

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
TABLE = "<alt6 table file>"

COMMANDS = {
    # README examples
    "analyze_x30": ["analyze", "x^30"],
    "analyze_x7": ["analyze", "x^7"],
    "analyze_x12": ["analyze", "x^12"],
    "analyze_x9_y4": ["analyze", "[x^9, y^4]"],
    "analyze_x30_y": ["analyze", "[x^30, y]"],
    "bound_x30_d2": ["bound", "x^30", "--d", "2"],
    "lawcheck_x6_cyc6": ["lawcheck", "x^6", "--group", "cyc6"],
    "lambda_alt5": ["lambda", "--group", "alt5"],
    "lambda_wreath_a5_a5_series": ["lambda", "--group", "wreath(alternating(5), alternating(5))",
                                   "--series", "trivial,block_kernel:5,full"],
    "catalog_table": ["catalog"],
    "catalog_length_30": ["catalog", "--length", "30"],
    "shortest_law_cyc6": ["shortest-law", "--group", "cyc6", "--max-len", "6", "--vars", "1"],
    # the rest of the benchmark's CLI command set
    "lambda_psl2_8": ["lambda", "--group", "psl2(8)"],
    "lambda_wreath_a5_c2": ["lambda", "--group", "wreath(alternating(5),cyclic(2))"],
    "analyze_x30_y_compact": ["analyze", "[x^30,y]"],
    "lawcheck_table_alt6": ["lawcheck", "[x,y]^60", "--group-file", TABLE],
    # a commutator with one trivial and one witness-bearing factor
    "analyze_x30_y4": ["analyze", "[x^30, y^4]"],
    # every rank-1 anabelian quotient is trivial
    "analyze_x30_rank1": ["analyze", "x^30", "--rank", "1"],
    # verified series whose normal closures run on generators only
    "lambda_wreath_a5_c2_series": ["lambda", "--group", "wreath(alternating(5),cyclic(2))",
                                   "--series", "trivial,block_kernel:5,full"],
    "lambda_wreath_a5_s3_series": ["lambda", "--group", "wreath(alternating(5),symmetric(3))",
                                   "--series", "trivial,block_kernel:5,full"],
    "lambda_wreath_a6_c2_series": ["lambda", "--group", "wreath(alternating(6),cyclic(2))",
                                   "--series", "trivial,block_kernel:6,full"],
    # runs under the config file given in CONFIGS
    "analyze_x1260_cayley_cap_200000": ["analyze", "x^1260"],
    "bound_x30_d2_precision_120": ["bound", "x^30", "--d", "2"],
    # Sym(5) products, whose transposition class closes to more than a
    # minimal normal subgroup
    "lambda_wreath_s5_c2": ["lambda", "--group", "wreath(symmetric(5),cyclic(2))"],
    "lambda_direct_s5_s5": ["lambda", "--group", "direct_product(symmetric(5),symmetric(5))"],
    # long laws, where the recursion settles and the Lie grids run long
    "bound_length_1200": ["bound", "--length", "1200"],
    "bound_length_5000_d3": ["bound", "--length", "5000", "--d", "3"],
    # seeded spot checks: their witnesses are random_element draws, so they
    # pin the base points and transversals of the stabilizer chain
    "lawcheck_sampled_alt6": ["lawcheck", "[x,y]", "--group", "alt6", "--mode", "sampled"],
    "lawcheck_sampled_wreath_a5_c2": ["lawcheck", "[x,y]", "--group",
                                      "wreath(alternating(5),cyclic(2))", "--mode", "sampled"],
    # a word that x^30 does not imply: each pool group is checked on the word
    "analyze_x30_commutator": ["analyze", "x^30[x,y]"],
    # past the index cap: the derived series runs on generators only
    "lambda_wreath_s4_s4_series": ["lambda", "--group", "wreath(symmetric(4),symmetric(4))",
                                   "--series", "trivial,full"],
    # words in the derived subgroup: powers of a commutator and nested
    # disjoint commutators, which the analyzer splits once
    "analyze_commutator_power_30": ["analyze", "[x,y]^30"],
    "analyze_commutator_power_60": ["analyze", "[x,y]^60"],
    "analyze_nested_commutator_rank3": ["analyze", "[[x,y],z]", "--rank", "3"],
    "analyze_commutator_of_commutators_rank4": ["analyze", "[[x,y],[z,w]]", "--rank", "4"],
}

# the config object each of these entries writes to a file and passes with --config
CONFIGS = {
    "analyze_x1260_cayley_cap_200000": {"cayley_cap": 200_000},
    "bound_x30_d2_precision_120": {"precision": 120},
}


def run_json(name, table_path):
    argv = [table_path if a == TABLE else a for a in COMMANDS[name]] + ["--json"]
    if name in CONFIGS:
        config_path = os.path.join(os.path.dirname(table_path), name + ".config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(CONFIGS[name], fh)
        argv = ["--config", config_path] + argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def write_alt6_table(path):
    write_table_file(path, densify(alternating(6)).table.tolist())


def golden_path(name):
    return os.path.join(GOLDEN_DIR, name + ".json")


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("golden") / "alt6.json")
    write_alt6_table(path)
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_json_matches_golden(name, table_path, monkeypatch):
    monkeypatch.delenv("BURNSIDE_CONFIG", raising=False)
    with open(golden_path(name), encoding="utf-8") as fh:
        expected = fh.read()
    assert run_json(name, table_path) == expected


def test_precision_changes_only_the_echoed_config(table_path, monkeypatch):
    monkeypatch.delenv("BURNSIDE_CONFIG", raising=False)
    high = json.loads(run_json("bound_x30_d2_precision_120", table_path))["result"]
    with open(golden_path("bound_x30_d2"), encoding="utf-8") as fh:
        base = json.load(fh)["result"]
    base["config"]["precision"] = 120
    assert high == base


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_golden.py --regenerate")
    os.environ.pop("BURNSIDE_CONFIG", None)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        table = os.path.join(scratch, "alt6.json")
        write_alt6_table(table)
        for name in sorted(COMMANDS):
            with open(golden_path(name), "w", encoding="utf-8") as fh:
                fh.write(run_json(name, table))
