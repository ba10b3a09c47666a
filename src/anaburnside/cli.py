"""Command line interface: word analysis, bounds, catalog, group checks.

Every command emits either a human-readable rendering or, with --json, a
deterministic JSON envelope carrying the tool version and the full
configuration so results can be reproduced exactly.
"""

import argparse
import json
import re
import sys

from . import __version__
from .analyzer import analyze
from .bounds import main_theorem_bound
from .catalog import candidates_for_law_length, catalog_table_rows
from .config import Config, load_config
from .engine import (as_indexed, composition_report, from_file, is_law, make_group,
                     nonsolvable_length, shortest_law_search, verify_series_lambda)
from .errors import CapExceeded, TowerOverflow, WordSyntaxError
from .towers import render_tower, working_precision
from .words import parse_word, to_string

_ALIAS = re.compile(r"^(alt|sym|cyc|dih)(\d+)$|^psl2[_(](\d+)\)?$")
_ALIAS_KIND = {"alt": "alternating", "sym": "symmetric", "cyc": "cyclic",
               "dih": "dihedral"}


def _resolve_group(text: str, config: Config):
    """Accept builder descriptors plus short aliases like alt5 or psl2_7."""
    m = _ALIAS.match(text.strip())
    if m:
        if m.group(3):
            text = "psl2(%s)" % m.group(3)
        else:
            text = "%s(%s)" % (_ALIAS_KIND[m.group(1)], m.group(2))
    return make_group(text, config.degree_cap, config.cayley_cap)


def _envelope(command: str, config: Config, result: dict) -> str:
    payload = {"tool": "anaburnside", "version": __version__,
               "command": command, "config": config.to_dict(), "result": result}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(args, command, config, result, text_lines):
    if args.json:
        print(_envelope(command, config, result))
    else:
        for line in text_lines:
            print(line)


def _render_analysis(report, lines, indent=""):
    lines.append("%sword: %s" % (indent, to_string(report.word)))
    lines.append("%scase: %s   verdict: %s" % (indent, report.case, report.verdict))
    if report.exponent is not None:
        lines.append("%sexponent: %d" % (indent, report.exponent))
    if report.burnside is not None:
        a, p, b = report.burnside
        shape = "2^%d" % a if p is None else "2^%d * %d^%d" % (a, p, b)
        lines.append("%sexponent shape: %s" % (indent, shape))
    for w in report.witnesses:
        lines.append("%switness: %s (exponent %d, %d assignments checked)"
                     % (indent, w.name, w.exponent, w.assignments_checked))
    if report.conclusion:
        lines.append("%sconclusion: %s" % (indent, report.conclusion))
    for note in report.notes:
        lines.append("%snote: %s" % (indent, note))
    if report.bound is not None:
        lines.append("%ssize bound (nonsolvable length %d): %s"
                     % (indent, report.bound.lambda_used,
                        render_tower(report.bound.main_bound)))
    for sub in report.sub_reports:
        lines.append("%sfactor:" % indent)
        _render_analysis(sub, lines, indent + "  ")


def _cmd_analyze(args, config):
    word = parse_word(args.word, rank_hint=args.rank)
    report = analyze(word, args.rank, config)
    lines = []
    _render_analysis(report, lines)
    _emit(args, "analyze", config, report.to_dict(), lines)
    return 0


def _cmd_bound(args, config):
    if args.word is None and args.length is None:
        raise ValueError("give a word or --length")
    if args.word is not None:
        word = parse_word(args.word)
    else:
        if args.length < 1:
            raise ValueError("length must be positive")
        word = parse_word("x^%d" % args.length)
    report = main_theorem_bound(word, args.d, lambda_override=args.nonsolvable_length,
                                config=config)
    lines = ["d=%d length=%d nonsolvable length used: %d"
             % (report.params.d, report.params.length, report.lambda_used),
             "alternating stage: %s" % render_tower(report.alt_bound),
             "Lie closed stage: %s" % render_tower(report.lie_closed)]
    for family, value in report.lie_grids.items():
        if value.height != 1 or value.index != 0:
            lines.append("Lie grid %s: %s" % (family, render_tower(value)))
    lines += ["sporadic stage: %s" % render_tower(report.sporadic),
              "semisimple product: %s" % render_tower(report.semisimple_product),
              "semisimple normalized: %s" % render_tower(report.semisimple_normalized),
              "recursive bound: %s" % render_tower(report.anabelian_recursive),
              "closed bound: %s" % render_tower(report.anabelian_closed),
              "main bound: %s (height %d)"
              % (render_tower(report.main_bound), report.main_bound.height)]
    lines += ["note: %s" % n for n in report.notes]
    _emit(args, "bound", config, report.to_dict(), lines)
    return 0


def _cmd_catalog(args, config):
    if args.length is not None:
        ids = candidates_for_law_length(args.length, c_lower=config.c_lower, d=args.d)
        result = {"length": args.length, "candidates": [str(g) for g in ids]}
        lines = [str(g) for g in ids]
    else:
        rows = catalog_table_rows(max_rank=args.max_rank)
        result = {"table": rows}
        lines = [json.dumps(row, sort_keys=True) for row in rows]
    _emit(args, "catalog", config, result, lines)
    return 0


def _load_group(args, config):
    if getattr(args, "group_file", None):
        return from_file(args.group_file, config.degree_cap, config.cayley_cap)
    if getattr(args, "group", None):
        return _resolve_group(args.group, config)
    raise ValueError("give --group or --group-file")


def _cmd_lawcheck(args, config):
    G = _load_group(args, config)
    word = parse_word(args.word)
    verdict = is_law(word, G, mode=args.mode, samples=args.samples, seed=config.seed,
                     exhaust_cap=config.exhaust_cap, cayley_cap=config.cayley_cap)
    result = {"word": to_string(word), "holds": verdict.holds,
              "mode": verdict.mode, "checked": verdict.checked}
    if verdict.witness is not None:
        result["witness"] = [str(x) for x in verdict.witness]
    lines = ["%s %s on the group (%s, %d assignments checked)"
             % (to_string(word), "holds" if verdict.holds else "fails",
                verdict.mode, verdict.checked)]
    if verdict.witness is not None:
        lines.append("witness: " + ", ".join(str(x) for x in verdict.witness))
    _emit(args, "lawcheck", config, result, lines)
    return 0


def _cmd_lambda(args, config):
    G = _load_group(args, config)
    # one index under the configured cap serves lambda and composition; a
    # verified series works on generators and needs none
    Gi = None
    if G.order() <= config.cayley_cap:
        Gi = as_indexed(G, cap=config.cayley_cap)
    if args.series:
        descriptors = [s.strip() for s in args.series.split(",")]
        report = verify_series_lambda(G, descriptors)
    elif Gi is None:
        raise CapExceeded("order %d exceeds cap %d" % (G.order(), config.cayley_cap))
    else:
        report = nonsolvable_length(Gi)
    result = {"value": report.value, "exact": report.exact,
              "notes": list(report.notes),
              "factors": [{"description": f.description, "order": f.order,
                           "kind": f.kind} for f in report.factors]}
    lines = ["nonsolvable length%s: %d"
             % ("" if report.exact else " (upper bound)", report.value)]
    lines += ["factor: %s (order %d, %s)" % (f.description, f.order, f.kind)
              for f in report.factors]
    lines += ["note: %s" % n for n in report.notes]
    if Gi is not None:
        comp = composition_report(Gi)
        result["composition_factors"] = [f.name for f in comp.factors]
        result["anabelian"] = comp.anabelian
        lines.append("composition factors: " + ", ".join(f.name for f in comp.factors))
        lines.append("anabelian: %s" % comp.anabelian)
    _emit(args, "lambda", config, result, lines)
    return 0


def _cmd_shortest_law(args, config):
    G = _resolve_group(args.group, config)
    res = shortest_law_search(G, args.max_len, args.vars, seed=config.seed,
                              exhaust_cap=config.exhaust_cap, cayley_cap=config.cayley_cap)
    result = {"certificate": res.certificate, "words_checked": res.words_checked}
    if res.found is not None:
        result["word"] = to_string(res.found)
        result["length"] = res.length
        lines = ["shortest law: %s (length %d, %d candidate words checked)"
                 % (to_string(res.found), res.length, res.words_checked)]
    else:
        lines = ["no law up to the length bound: %s (%d candidate words checked)"
                 % (res.certificate, res.words_checked)]
    _emit(args, "shortest-law", config, result, lines)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="anaburnside",
        description="Size bounds and triviality analysis for anabelian "
                    "quotients of groups with a word law.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="path to a JSON config file "
                        "(default: the BURNSIDE_CONFIG environment variable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a word law")
    p.add_argument("word")
    p.add_argument("--rank", "-d", type=int, default=2)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bound", help="evaluate the staged size bound")
    p.add_argument("word", nargs="?")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--length", type=int)
    p.add_argument("--lambda", dest="nonsolvable_length", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("catalog", help="simple group tables and candidates")
    p.add_argument("--length", type=int)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--max-rank", type=int, default=10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lawcheck", help="check a word law on a group")
    p.add_argument("word")
    p.add_argument("--group")
    p.add_argument("--group-file")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lambda", help="nonsolvable length of a group")
    p.add_argument("--group")
    p.add_argument("--group-file")
    p.add_argument("--series", help="comma-separated series descriptors to "
                   "verify, e.g. trivial,block_kernel:5,full")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("shortest-law", help="search for the shortest law")
    p.add_argument("--group", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--vars", type=int, default=1)
    p.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "bound": _cmd_bound,
    "catalog": _cmd_catalog,
    "lawcheck": _cmd_lawcheck,
    "lambda": _cmd_lambda,
    "shortest-law": _cmd_shortest_law,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        with working_precision(config.precision):
            return _COMMANDS[args.command](args, config)
    except (CapExceeded, TowerOverflow) as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (WordSyntaxError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
