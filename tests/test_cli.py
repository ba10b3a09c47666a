"""Command-line interface: subcommands, exit codes, JSON envelopes, config."""

import json
import os
import subprocess
import sys

import pytest

from anaburnside import __version__
from anaburnside.cli import main

from groupfiles import sl25_table, write_perm_file, write_table_file


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, err = run(capsys, ["analyze", "x^30", "--rank", "2"])
    assert code == 0
    assert "NontrivialWitness" in out
    assert "Alt(5)" in out


def test_analyze_json_envelope(capsys):
    code, out, _ = run(capsys, ["analyze", "x^12", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["tool"] == "anaburnside"
    assert data["version"] == __version__
    assert data["command"] == "analyze"
    assert data["config"]["c"] == 2.0
    assert data["result"]["verdict"] == "TrivialByBurnside"
    assert data["result"]["burnside"] == {"a": 2, "b": 1, "p": 3}


def test_analyze_json_byte_stable(capsys):
    _, first, _ = run(capsys, ["analyze", "[x^30,y]", "--json"])
    _, second, _ = run(capsys, ["analyze", "[x^30,y]", "--json"])
    assert first == second


def test_bound_word(capsys):
    code, out, _ = run(capsys, ["bound", "x^30", "--d", "2"])
    assert code == 0
    assert "E_63(" in out


def test_bound_length_form(capsys):
    code, out, _ = run(capsys, ["bound", "--length", "2", "--d", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["main_bound_height"] == 6


def test_bound_lambda_override(capsys):
    code, out, _ = run(capsys, ["bound", "x^30", "--d", "2", "--lambda", "1",
                                "--json"])
    assert code == 0
    assert json.loads(out)["result"]["lambda_used"] == 1


def test_catalog_table(capsys):
    code, out, _ = run(capsys, ["catalog", "--max-rank", "3", "--json"])
    assert code == 0
    rows = json.loads(out)["result"]["table"]
    assert any(r["family"] == "A" and r["k"] == 1 and r["b"] == 3
               for r in rows)


def test_catalog_candidates(capsys):
    code, out, _ = run(capsys, ["catalog", "--length", "30"])
    assert code == 0
    assert "Alt(5)" in out


def test_lawcheck_alias_group(capsys):
    code, out, _ = run(capsys, ["lawcheck", "x^30", "--group", "alt5",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["holds"] is True
    assert data["result"]["mode"] == "exhaustive"


def test_lawcheck_witness(capsys):
    code, out, _ = run(capsys, ["lawcheck", "x^15", "--group", "alt5",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["holds"] is False
    assert data["result"]["witness"]


def test_lawcheck_group_file(capsys, tmp_path):
    path = tmp_path / "sl25.json"
    write_table_file(str(path), sl25_table())
    code, out, _ = run(capsys, ["lawcheck", "x^60", "--group-file", str(path),
                                "--json"])
    assert code == 0
    assert json.loads(out)["result"]["holds"] is True


def test_lambda_command(capsys):
    code, out, _ = run(capsys, ["lambda", "--group", "sym4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["value"] == 0
    code, out, _ = run(capsys, ["lambda", "--group", "alt5", "--json"])
    assert json.loads(out)["result"]["value"] == 1


def test_lambda_series(capsys):
    code, out, _ = run(capsys, [
        "lambda", "--group", "wreath(alternating(5), alternating(5))",
        "--series", "trivial,block_kernel:5,full", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["value"] == 2
    assert data["result"]["exact"] is False


def test_lambda_perm_group_file(capsys, tmp_path):
    path = tmp_path / "c7.json"
    write_perm_file(str(path), 7, [[2, 3, 4, 5, 6, 7, 1]])
    code, out, _ = run(capsys, ["lambda", "--group-file", str(path), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["value"] == 0
    assert data["result"]["composition_factors"] == ["C_7"]


def test_shortest_law_command(capsys):
    code, out, _ = run(capsys, ["shortest-law", "--group", "cyc6",
                                "--max-len", "8", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["length"] == 6
    assert data["result"]["word"] == "x^6"


def test_exit_two_on_bad_word(capsys):
    code, _, err = run(capsys, ["analyze", "x^^3"])
    assert code == 2
    assert "error" in err


def test_exit_two_on_bad_group(capsys):
    code, _, err = run(capsys, ["lawcheck", "x^2", "--group", "sporadic99"])
    assert code == 2


def test_exit_three_on_cap(capsys):
    code, _, err = run(capsys, ["shortest-law", "--group", "alt5",
                                "--max-len", "4", "--vars", "3"])
    assert code == 3
    assert "cap" in err.lower()
    code, _, err = run(capsys, ["lawcheck", "[[x,y],[z,w]]", "--group",
                                "alt6"])
    assert code == 3


def test_lambda_respects_cayley_cap(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cayley_cap": 1000}))
    code, out, err = run(capsys, ["--config", str(cfg), "lambda", "--group",
                                  "alternating(7)", "--json"])
    assert code == 3
    assert out == ""
    assert "cap 1000" in err
    code, out, _ = run(capsys, ["--config", str(cfg), "lambda", "--group",
                                "alternating(6)", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["composition_factors"] == ["Alt(6)"]


def _config_file(tmp_path, **fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    return str(cfg)


def test_analyze_witness_pool_reads_cayley_cap(capsys, tmp_path):
    # Alt(9) has order 181440: excluded under the default cap, certified above it
    code, out, _ = run(capsys, ["--config", _config_file(tmp_path, cayley_cap=200_000),
                                "analyze", "x^1260", "--json"])
    assert code == 0
    assert "Alt(9)" in [w["name"] for w in json.loads(out)["result"]["witnesses"]]


def test_lawcheck_reads_cayley_cap(capsys, tmp_path):
    code, out, err = run(capsys, ["--config", _config_file(tmp_path, cayley_cap=1000),
                                  "lawcheck", "x^420", "--group", "alt7"])
    assert code == 3
    assert out == ""
    assert "cap 1000" in err


@pytest.mark.parametrize("group", ["dih12", "direct_product(alternating(5),cyclic(5))",
                                   "wreath(cyclic(3),cyclic(3))", "alt9", "<degree 9 file>"])
def test_group_builders_read_degree_cap(capsys, tmp_path, group):
    if group == "<degree 9 file>":
        group = str(tmp_path / "c9.json")
        write_perm_file(group, 9, [[2, 3, 4, 5, 6, 7, 8, 9, 1]])
        group_args = ["--group-file", group]
    else:
        group_args = ["--group", group]
    code, out, err = run(capsys, ["--config", _config_file(tmp_path, degree_cap=8),
                                  "lambda"] + group_args)
    assert code == 3
    assert out == ""
    assert "exceeds" in err and " 8" in err


def test_cli_import_does_not_load_sympy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run([sys.executable, "-c",
                    "import anaburnside.cli, sys; assert 'sympy' not in sys.modules"],
                   env=env, check=True, timeout=120)


def test_config_file_option(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": 4.0}))
    code, out, _ = run(capsys, ["--config", str(cfg), "bound", "x^30",
                                "--d", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["config"]["c"] == 4.0


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 99}))
    monkeypatch.setenv("BURNSIDE_CONFIG", str(cfg))
    code, out, _ = run(capsys, ["analyze", "x^12", "--json"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 99


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"不": 1}))
    code, _, err = run(capsys, ["--config", str(cfg), "analyze", "x^2"])
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("n", [100, 500])
def test_cyclic_matches_its_cayley_table(capsys, tmp_path, n):
    # above the degree cap cyclic(n) is the integers mod n, indexed like the
    # table (i + j) % n: composition factors, lambda and law checks agree
    path = tmp_path / "cyclic.json"
    write_table_file(path, [[(i + j) % n for j in range(n)] for i in range(n)])
    sources = (["--group", "cyclic(%d)" % n], ["--group-file", str(path)])
    commands = [["lambda"]] + [["lawcheck", w] for w in
                               ("x^%d" % n, "x^%d" % (n // 2), "[x,y]", "x^3 y^-7 x^2")]
    for command in commands:
        results = []
        for source in sources:
            code, out, _ = run(capsys, command + source + ["--json"])
            assert code == 0
            results.append(json.loads(out)["result"])
        assert results[0] == results[1], command
