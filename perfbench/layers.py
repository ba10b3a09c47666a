"""Per-layer costs: each module's public functions timed in isolation.

Every figure is measured with tracing off, on fixed inputs (seeded where
an operand mix is drawn), and aggregated over repeats: per-call figures
divide a loop of many calls, and single heavy calls report the median of
a few repeats.
"""

import contextlib
import io
import random
import statistics
import subprocess
import sys
import time

import oracles as O

BOUND_LENGTH = 200          # law length for the bounds.* stages, d = 2, k = length
A5xA6 = "direct_product(alternating(5),alternating(6))"
A5wrA5 = "wreath(alternating(5),alternating(5))"


def per_call_us(fn, args_list, repeats=3):
    """Median over repeats of the mean microseconds per call."""
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        best.append((time.perf_counter() - t0) / len(args_list) * 1e6)
    return statistics.median(best)


def median_ms(fn, repeats=3):
    """Median wall milliseconds of fn() over repeats."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _pairs(rng, n, count):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def measure(ab, seed, env):
    """Every per-layer timing; `env` runs the child-process import probes."""
    rng = random.Random(seed)
    words, towers, bounds, catalog = ab.words, ab.towers, ab.bounds, ab.catalog
    analyzer, engine = ab.analyzer, ab.engine
    out = {}

    # analyzer first: the pool is cold only once per process
    x30 = words.parse_word("x^30")
    t0 = time.perf_counter()
    analyzer.analyze(x30, 2)
    cold = time.perf_counter() - t0
    warm = median_ms(lambda: analyzer.analyze(x30, 2), 5) / 1e3
    out["analyzer.pool_cold_s"] = (cold - warm, "s")
    out["analyzer.classify_warm_ms"] = (median_ms(lambda: analyzer.classify(x30, 2), 5), "ms")

    texts = ["x^97", "x^21 y^35", "[x^9,y^4]", "[x^30,y]", "[x,y]^3", "[[x,y],x^2]",
             "(x y)^5 x^-2", "x1^3 x2 x3^-1"]
    out["words.parse_us"] = (per_call_us(words.parse_word, [(t,) for t in texts] * 100), "us")
    A5 = engine.make_group("alternating(5)")
    elems = A5.elements()
    w = words.parse_word("[x,y]^3")
    assigns = [((rng.choice(elems), rng.choice(elems)), A5) for _ in range(300)]
    out["words.evaluate_us"] = (per_call_us(lambda a, g: words.evaluate(w, a, g), assigns), "us")

    # tower operands: the stage values of one bound report
    rep = bounds.main_theorem_bound(words.parse_word("x^120"), 2)
    stages = [rep.alt_bound, rep.lie_closed, rep.sporadic, rep.semisimple_product,
              rep.semisimple_normalized, rep.anabelian_recursive, rep.anabelian_closed]
    stages += [v for v in rep.lie_grids.values() if v.height > 1]
    pairs = [(rng.choice(stages), rng.choice(stages)) for _ in range(400)]
    out["towers.mul_t_us"] = (per_call_us(towers.mul_t, pairs), "us")
    powers = [(rng.choice(stages), rng.randrange(2, 50)) for _ in range(300)]
    out["towers.pow_t_us"] = (per_call_us(towers.pow_t, powers), "us")
    builds = [(rng.choice(stages).height, rng.uniform(0, 10)) for _ in range(400)]
    out["towers.tower_us"] = (per_call_us(towers.tower, builds), "us")
    out["towers.render_us"] = (per_call_us(towers.render_tower,
                                           [(rng.choice(stages),) for _ in range(300)]), "us")

    p = bounds.BoundParams(2, BOUND_LENGTH, BOUND_LENGTH)
    for name, fn in (("alt", bounds.alt_product_bound), ("lie", bounds.lie_product_bound),
                     ("sporadic", bounds.sporadic_factor),
                     ("semisimple", bounds.semisimple_bound),
                     ("anabelian", bounds.anabelian_bound)):
        out["bounds.%s_ms" % name] = (median_ms(lambda f=fn: f(p)), "ms")

    out["catalog.candidates_ms"] = (median_ms(
        lambda: catalog.candidates_for_law_length(30), 5), "ms")
    out["catalog.table_ms"] = (median_ms(lambda: catalog.catalog_table_rows(10), 5), "ms")

    descs = [A5xA6, A5wrA5, "psl2(11)", "symmetric(5)", "wreath(symmetric(4),cyclic(3))",
             "direct_product(alternating(5),symmetric(4))"]
    out["build.make_group_ms"] = (median_ms(
        lambda: [engine.make_group(d) for d in descs]) / len(descs), "ms")

    W = engine.make_group(A5wrA5)
    wperms = [W.random_element(rng) for _ in range(200)]
    out["perm.mul_us"] = (per_call_us(lambda a, b: a * b,
                                      [(rng.choice(wperms), rng.choice(wperms))
                                       for _ in range(4000)]), "us")
    psl32 = engine.make_group("psl2(32)")

    def fresh_chains():
        for G in (psl32, W):
            engine.PermGroup(G.degree, G.generators).order()
    out["perm.chain_ms"] = (median_ms(fresh_chains), "ms")
    out["perm.elements_ms"] = (median_ms(
        lambda: engine.alternating(8).elements()), "ms")
    out["perm.derived_subgroup_ms"] = (median_ms(
        lambda: engine.make_group("wreath(symmetric(4),cyclic(3))").derived_subgroup()), "ms")

    G = engine.make_group(A5xA6)
    out["indexed.index_ms"] = (median_ms(
        lambda: engine.as_indexed(engine.make_group(A5xA6))), "ms")
    Gi = engine.as_indexed(G)
    # the Alt(5) factor moves only points 0..4
    a5 = [i for i in range(Gi.n) if list(Gi.rows[i][5:]) == list(range(5, 11))]
    a6_table = engine.TableGroup(O.cayley_table(O.enumerate_group(O.alternating_gens(6))))
    a5_table = engine.TableGroup(O.cayley_table(O.enumerate_group(O.alternating_gens(5))))
    substrates = {
        "perm": Gi,
        "table": a6_table,
        "quotient": engine.QuotientGroup(Gi, a5),
        "subgroup": engine.SubgroupView(Gi, a5),
        "pair": engine.PairGroup(a5_table, a6_table),
    }
    for name, S in substrates.items():
        out["indexed.mul_us.%s" % name] = (per_call_us(S.mul, _pairs(rng, S.n, 5000)), "us")

    out["structure.closure_ms"] = (median_ms(
        lambda: engine.subgroup_closure(Gi, Gi.generator_indices)), "ms")
    out["structure.classes_ms"] = (median_ms(lambda: engine.conjugacy_classes(Gi)), "ms")
    out["structure.min_normals_ms"] = (median_ms(
        lambda: engine.minimal_normal_subgroups(Gi), 1), "ms")
    out["structure.composition_ms"] = (median_ms(
        lambda: engine.composition_report(Gi), 1), "ms")
    out["structure.lambda_ms"] = (median_ms(lambda: engine.nonsolvable_length(Gi), 1), "ms")

    law = words.parse_word("[x,y]^60")
    A6 = engine.make_group("alternating(6)")
    for name, H in (("perm", A6), ("table", a6_table)):
        t0 = time.perf_counter()
        v = engine.is_law(law, H)
        out["laws.assign_per_s.%s" % name] = (v.checked / (time.perf_counter() - t0), "assign/s")
    out["laws.exponent_ms"] = (median_ms(
        lambda: engine.group_exponent(engine.make_group("alternating(7)"))), "ms")

    out.update(import_probes(env))
    return out


def import_probes(env, repeats=5):
    """Interpreter start, package import and sympy import, in fresh processes."""
    def wall(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    start = wall("pass")
    return {"python.start_ms": (start, "ms"),
            "cli.import_ms": (wall("import anaburnside.cli") - start, "ms"),
            "cli.import_sympy_ms": (wall("import sympy") - start, "ms")}


def probe(ab):
    """One small call into every module, identical for every workload."""
    words, engine = ab.words, ab.engine
    w = words.parse_word("[x^2,y]")
    ab.towers.render_tower(ab.towers.mul_t(ab.towers.from_real(10), ab.towers.from_real(20)))
    ab.bounds.main_theorem_bound(words.parse_word("x^6"), 2)
    ab.catalog.candidates_for_law_length(10)
    ab.analyzer.analyze(words.parse_word("x^7"), 2)
    S5 = engine.make_group("symmetric(5)")
    engine.nonsolvable_length(S5)
    engine.composition_report(S5)
    engine.is_law(w, S5)
    with contextlib.redirect_stdout(io.StringIO()):
        ab.cli.main(["catalog", "--length", "10", "--json"])
