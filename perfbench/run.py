"""Benchmark of anaburnside: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
`--setup-only` builds the inputs, prints the seconds since the process
started and exits; untraced runs start a few such processes, one at a
time, after their rounds, for the median cold set-up time.
The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import clibench
import layers
import reference
import sessions
import tracer

T_IMPORT = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verdicts", "structure", "cli")
MIN_ROUNDS = 2
SETUP_CHILDREN = 4      # cold set-ups in fresh processes, besides this one's


def process_age():
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        started = int(fields[19]) / ticks
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_IMPORT


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up seconds and exit")
    return p.parse_args(argv)


class Package:
    """The package's modules, looked up at call time so wrappers apply."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "anaburnside", "__init__.py")):
            raise SystemExit("no package at %s: run from the root of a checkout" % SRC)
        sys.path.insert(0, SRC)
        import anaburnside.cli  # noqa: F401  (imports every module)
        import anaburnside as ab
        if not os.path.abspath(ab.__file__).startswith(SRC + os.sep):
            raise SystemExit("imported anaburnside from %s, not %s" % (ab.__file__, SRC))
        self.words, self.towers, self.catalog = ab.words, ab.towers, ab.catalog
        self.config, self.bounds, self.analyzer = ab.config, ab.bounds, ab.analyzer
        self.engine, self.cli = ab.engine, ab.cli


def make_session(name, pkg, seed):
    if name == "cli":
        return clibench.Cli(ROOT, OUT, seed)
    return {"verdicts": sessions.Verdicts, "structure": sessions.Structure}[name](pkg, seed)


def cold_setups(workload, seed, count):
    """Set-up seconds of `count` fresh processes, run one after another.

    Each imports the package and builds the workload's inputs, timed from
    its own start, exactly as the measuring process does.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--setup-only"]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_rounds(session, seconds, ref):
    """Rounds until the time is spent, at least MIN_ROUNDS; all are kept."""
    rounds = []
    if session.warmup:
        rounds.append(("warmup", session.round(ref)))
    start = time.perf_counter()
    while True:
        rounds.append(("measured", session.round(ref)))
        done = len(rounds) - session.warmup
        elapsed = time.perf_counter() - start
        if done >= MIN_ROUNDS and elapsed + elapsed / done > seconds:
            break
    return rounds


def end_to_end(name, measured):
    """round_ref and peak_rss_mb, plus the round's split.

    round_ref is the time spent in the package's calls, each call in units
    of the reference kernel sampled around it: the median over rounds of
    their sum, or for cli the sum over commands of each command's median.
    The split gives every call kind in seconds and in reference units; it
    is reported beside the metrics, not as metrics.
    """
    kinds = sorted({k for r in measured for k in r.times})
    units = [r.in_reference_units() for r in measured]
    split = {k + "_s": statistics.median(r.times.get(k, 0.0) for r in measured)
             for k in kinds}
    split.update({k + "_ref": statistics.median(u.get(k, 0.0) for u in units)
                  for k in kinds})
    split["reference_s"] = statistics.median(x for r in measured for x in r.refs)
    split["rounds"] = len(measured)
    if name == "cli":
        round_ref = sum(split[k + "_ref"] for k in kinds)
    else:
        round_ref = statistics.median(sum(u.values()) for u in units)
        split["round_s"] = statistics.median(sum(r.times.values()) for r in measured)
    if name == "structure":
        split["lawcheck_rate"] = statistics.median(
            r.assignments / r.times["lawcheck"] for r in measured)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {"round_ref": (round_ref, "ref"),
               "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB")}
    return metrics, split


TRACE_CALLS = (
    ("calls.indexed.mul", "indexed", "mul"),
    ("calls.perm.mul", "perm", "__mul__"),
    ("calls.towers.mul_t", "towers", "mul_t"),
    ("calls.towers.pow_t", "towers", "pow_t"),
    ("calls.towers.tower", "towers", "tower"),
    ("calls.bounds.main_theorem_bound", "bounds", "main_theorem_bound"),
    ("calls.analyzer.analyze", "analyzer", "analyze"),
    ("calls.laws.is_law", "laws", "is_law"),
    ("calls.structure.subgroup_closure", "structure", "subgroup_closure"),
    ("calls.build.make_group", "build", "make_group"),
)
TRACE_MODULES = ("words", "towers", "catalog", "bounds", "analyzer", "cli",
                 "build", "perm", "indexed", "structure", "laws")


def traced(name, pkg, session, seed):
    """Per-layer metrics: isolated layer costs, then one untraced round and,
    traced, the layer probe and one round of the workload.

    Self times and call counts cover the probe and the traced round; the
    probe makes one small call into every module, the same for every
    workload. The overhead compares the traced round with the untraced one,
    both in units of the reference kernel sampled through them, so that the
    host's drift between the two rounds stays out of it.
    """
    rounds = []
    m = layers.measure(pkg, seed, clibench.child_env(ROOT))
    if session.warmup:
        rounds.append(session.round())
    ref = reference.Reference()
    rounds.append(session.round(ref))
    plain = sum(rounds[-1].in_reference_units().values())
    path = os.path.join(OUT, "trace-%s-%d" % (name, seed))
    t = tracer.Tracer()
    t.install()
    try:
        layers.probe(pkg)
        if name != "cli":
            rounds.append(session.round(ref))
    finally:
        t.uninstall()
    t.write(path + ".json")
    summaries = [t.summary()]
    if name == "cli":
        child = os.path.join(HERE, "trace_child.py")
        rounds.append(session.round(ref, prefix=[child], trace_file=path))
        for cmd, _ in session.commands:
            with open("%s-%s.json" % (path, cmd)) as fh:
                summaries.append(json.load(fh)["summary"])
    with_trace = sum(rounds[-1].in_reference_units().values())
    summary = tracer.merge_summaries(summaries)
    for module in TRACE_MODULES:
        m["self_s.%s" % module] = (summary["self_s"].get(module, 0.0), "s")
    for metric, module, method in TRACE_CALLS:
        m[metric] = (tracer.count(summary, module, method), "count")
    m["trace.overhead"] = (with_trace / plain - 1.0, "ratio")
    return rounds, m


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)
    pkg = Package()
    session = make_session(args.workload, pkg, args.seed)
    setup_s = process_age()
    if args.setup_only:
        print(setup_s)
        return 0
    session.prepare_oracles()
    if args.trace:
        rounds, metrics = traced(args.workload, pkg, session, args.seed)
    else:
        ref = reference.Reference()
        tagged = run_rounds(session, args.seconds, ref)
        rounds = [r for _, r in tagged]
        measured = [r for tag, r in tagged if tag == "measured"]
        # peak memory first: the set-up processes below are children too
        metrics, split = end_to_end(args.workload, measured)
        setups = [setup_s] + cold_setups(args.workload, args.seed, SETUP_CHILDREN)
        metrics["setup_s"] = (statistics.median(setups), "s")
        split["setup_first_s"] = setup_s
        with open(os.path.join(OUT, "split-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump(split, fh, indent=1, sort_keys=True)
        print("split:", json.dumps(split, sort_keys=True), file=sys.stderr)
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print("error:", e, file=sys.stderr)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": not [e for e in errors if e.startswith("wrong output")],
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
