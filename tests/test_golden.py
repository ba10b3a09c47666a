"""CLI `--json` output pinned byte for byte against committed golden files.

The commands are the README examples, the benchmark's CLI command set and
`analyze "[x^30, y^4]"`. To rewrite the goldens after an intended output
change, run `PYTHONPATH=src python tests/test_golden.py --regenerate` from
the repository root and check the result with `git diff`.
"""

import contextlib
import io
import os
import sys

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
}


def run_json(argv, table_path):
    argv = [table_path if a == TABLE else a for a in argv] + ["--json"]
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
    assert run_json(COMMANDS[name], table_path) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_golden.py --regenerate")
    os.environ.pop("BURNSIDE_CONFIG", None)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    table = os.path.join(GOLDEN_DIR, "_alt6_table.tmp.json")
    write_alt6_table(table)
    try:
        for name, argv in sorted(COMMANDS.items()):
            with open(golden_path(name), "w", encoding="utf-8") as fh:
                fh.write(run_json(argv, table))
    finally:
        os.remove(table)
