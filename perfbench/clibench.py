"""The cli workload: each command a fresh `anaburnside ... --json` process.

Commands run as `python -m anaburnside.cli` against the checkout's `src`,
one child at a time. Every pass runs the whole command set in a seeded
order; a command's figure is the median of its passes.
"""

import json
import os
import random
import subprocess
import sys

import oracles as O
from sessions import Round

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "catalog_length_30.json")
TABLE_GROUP = ("alt", 6)
TABLE_LAW = "[x,y]^60"

COMMANDS = (
    ("analyze_x7", ["analyze", "x^7"]),
    ("analyze_x30", ["analyze", "x^30"]),
    ("bound_x30", ["bound", "x^30"]),
    ("catalog_30", ["catalog", "--length", "30"]),
    ("lambda_alt5", ["lambda", "--group", "alt5"]),
    ("lambda_psl2_8", ["lambda", "--group", "psl2(8)"]),
    ("lambda_wreath", ["lambda", "--group", "wreath(alternating(5),cyclic(2))"]),
    ("analyze_x30_y", ["analyze", "[x^30,y]"]),
    ("lawcheck_table", ["lawcheck", TABLE_LAW, "--group-file", None]),
)


def child_env(root):
    env = dict(os.environ)
    env.pop("BURNSIDE_CONFIG", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_table(path, seed):
    """Cayley table of Alt(6), elements relabelled by a seeded shuffle."""
    elements = O.enumerate_group(O.alternating_gens(TABLE_GROUP[1]))
    relabel = list(range(len(elements)))
    random.Random(seed).shuffle(relabel)
    table = O.cayley_table(elements, relabel)
    with open(path, "w") as fh:
        json.dump({"order": len(table), "table": table}, fh, separators=(",", ":"))
    return len(table)


def _closed(text, length, config):
    h, idx = O.closed_bound(length, 2, config["c"])
    got_h, got_idx = O.parse_rendered(text)
    return got_h == h and O.index_matches(idx, got_idx)


def _witnesses(result, n, config):
    _, expected = O.periodic_verdict(n, config["cayley_cap"])
    got = [(w["name"], w["exponent"], w["assignments_checked"])
           for w in result.get("witnesses", [])]
    return got == list(expected)


def _lambda(result, value, factors):
    names = sorted(O.factor_name(k, o) for k, o in factors)
    return (result["value"] == value and result["exact"]
            and sorted(result["composition_factors"]) == names
            and result["anabelian"] == (not any(k == "cyclic" for k, _ in factors)))


def check(name, envelope, table_order, golden):
    """True when a command's JSON result matches the oracles."""
    r, cfg = envelope["result"], envelope["config"]
    if name == "analyze_x7":
        return r["verdict"] == O.FT and _closed(r["bound"]["main_bound"], 7, cfg)
    if name == "analyze_x30":
        return (r["verdict"] == O.WITNESS and _witnesses(r, 30, cfg)
                and _closed(r["bound"]["main_bound"], 30, cfg))
    if name == "bound_x30":
        h, _ = O.closed_bound(30, 2, cfg["c"])
        return r["main_bound_height"] == h and _closed(r["main_bound"], 30, cfg)
    if name == "catalog_30":
        return r == golden
    if name == "lambda_alt5":
        return _lambda(r, 1, O.composition(("alt", 5)))
    if name == "lambda_psl2_8":
        return _lambda(r, 1, O.composition(("psl2", 8)))
    if name == "lambda_wreath":
        g = ("wreath", ("alt", 5), ("cyc", 2))
        return _lambda(r, O.nonsolvable_length(g), O.composition(g))
    if name == "analyze_x30_y":
        return (r["verdict"] == O.WITNESS and r["case"] == "disjoint_commutator"
                and _witnesses(r, 30, cfg) and _closed(r["bound"]["main_bound"], 62, cfg))
    if name == "lawcheck_table":
        return r["holds"] and r["checked"] == table_order ** 2 and r["mode"] == "exhaustive"
    raise ValueError(name)


class Cli:
    name = "cli"
    warmup = False

    def __init__(self, root, out_dir, seed):
        self.root = root
        self.env = child_env(root)
        self.rng = random.Random(seed)
        table_path = os.path.join(out_dir, "table-%d.json" % seed)
        self.table_order = write_table(table_path, seed)
        self.commands = [(n, [a if a is not None else table_path for a in args] + ["--json"])
                         for n, args in COMMANDS]
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)

    def prepare_oracles(self):
        pass

    def run_command(self, argv, prefix=()):
        """Exit code and standard output of one fresh child process."""
        cmd = [sys.executable] + list(prefix or ["-m", "anaburnside.cli"]) + argv
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def round(self, reference=None, prefix=(), trace_file=None):
        r = Round(reference)
        order = list(self.commands)
        self.rng.shuffle(order)
        for name, argv in order:
            args = argv if trace_file is None else ["%s-%s.json" % (trace_file, name)] + argv
            done = r.call(name, self.run_command, args, prefix)
            if done is None:
                continue
            code, out = done
            if code != 0:
                r.failed += 1
                r.errors.append("%s exited %d" % (name, code))
                continue
            envelope = json.loads(out.strip().splitlines()[-1])
            r.expect(check(name, envelope, self.table_order, self.golden),
                     "%s: %s" % (name, out[:300]))
        return r.finish()
