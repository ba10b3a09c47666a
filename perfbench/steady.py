"""Steadiness check: run each workload repeatedly and report each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--workloads verdicts,structure,cli]
                                [--first-seed 1] [--seconds N]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Each run is a fresh `run.py` process with its own seed, one after another.
For every end-to-end metric, and every entry of the round's split by call
kind, it prints the median, the quartiles (Python's statistics.quantiles
with n=4) and the spread (Q3 - Q1) / median beside the metric's bound from
BENCHMARK.json, and the share of failed operations of every run. The
bounds are set from these spreads; every single run is itself a median
over repeated rounds, because one cold process alone can drift by up to
20 % on a small shared host. Runs are untraced (`--trace 0`): traced runs
of successive seeds differ in their inputs, so their spreads mean nothing.

`--compare` reads two reports written by this script, each from its own
set of runs, and prints for every workload and end-to-end metric how far
the second median lies from the first, against the metric's bound, and
whether the share of failed operations is the same in both sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--compare", nargs=2, metavar="REPORT")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.compare:
        return compare(bench, *args.compare)
    report = {}
    for workload in args.workloads.split(","):
        values, shares = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit("%s seed %d exited %d" % (workload, seed, proc.returncode))
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit("%s seed %d: wrong output" % (workload, seed))
            shares.append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in proc.stderr.splitlines():
                if line.startswith("split: "):
                    for name, v in json.loads(line[len("split: "):]).items():
                        values.setdefault("split." + name, []).append(v)
            print("%s seed %d (%.0f s): %s" % (workload, seed, time.perf_counter() - t0, json.dumps(
                {k: round(v["value"], 6) for k, v in res["metrics"].items()})), flush=True)
        rows = {}
        for name, vals in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print("  %-32s median %-14.6g spread %6.2f%%  bound %s %s"
                  % (name, med, 100 * spread, bound, flag))
        print("  failed share per run: %s" % sorted(set(shares)))
        report[workload] = {"metrics": rows, "failed_share": shares}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "steady-%s-%d.json" % (
        args.workloads.replace(",", "_"), args.first_seed))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print("wrote", os.path.relpath(path, ROOT))
    return 0


def compare(bench, first_path, second_path):
    """Second set against first: change of each median, beside its bound."""
    with open(first_path) as fh:
        first = json.load(fh)
    with open(second_path) as fh:
        second = json.load(fh)
    ok = True
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload], second[workload]
        for m in bench["end_to_end"]:
            m1, m2 = a["metrics"][m["name"]]["median"], b["metrics"][m["name"]]["median"]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            within = worse <= m["bound"]
            ok &= within
            print("%-10s %-14s median %-12.6g -> %-12.6g worse by %6.2f%%  bound %s %s"
                  % (workload, m["name"], m1, m2, 100 * worse, m["bound"],
                     "ok" if within else "OUT"))
        same = sorted(set(a["failed_share"])) == sorted(set(b["failed_share"]))
        ok &= same
        print("%-10s failed share %s -> %s %s" % (workload, sorted(set(a["failed_share"])),
                                                  sorted(set(b["failed_share"])),
                                                  "same" if same else "DIFFERENT"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
