"""Acceptance gate: the eleven headline behaviors, one pass/fail line each."""

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import time

import mpmath
import pytest

from anaburnside.analyzer import (
    VERDICT_BURNSIDE,
    VERDICT_FT,
    VERDICT_WITNESS,
    analyze,
)
from anaburnside.bounds import (
    BoundParams,
    _scale_part,
    alt_product_bound,
    anabelian_bound_series,
    anabelian_intermediate_bound,
    main_theorem_bound,
)
from anaburnside.catalog import (
    AltId,
    LieId,
    candidates_for_law_length,
    catalog_table_json,
    catalog_table_rows,
)
from anaburnside.config import Config
from anaburnside.engine import (
    PairGroup,
    Permutation,
    QuotientGroup,
    SubgroupView,
    alternating,
    as_indexed,
    automorphism_count,
    composition_report,
    count_generating_tuples,
    cyclic,
    densify,
    dihedral,
    direct_product,
    group_exponent,
    is_anabelian,
    max_d_generated_power,
    minimal_normal_subgroups,
    nonsolvable_length,
    psl2_group,
    shortest_law_search,
    subgroup_closure,
    symmetric,
    verify_series_lambda,
    wreath,
)
from anaburnside.towers import (
    big_E,
    close_t,
    cmp_t,
    from_real,
    mul_t,
    to_real,
    tower,
    working_precision,
)
from anaburnside.words import parse_word, to_string

from groupfiles import sl25_group

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "catalog_snapshot.json")


@contextlib.contextmanager
def criterion(capsys, num, summary):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("criterion %02d FAIL: %s" % (num, summary))
        raise
    with capsys.disabled():
        print("criterion %02d PASS: %s" % (num, summary))


def test_criterion_01_analyzer_verdicts(capsys):
    with criterion(capsys, 1, "analyzer verdicts for periodic words, under 1s each"):
        for n in (3, 5, 7, 9, 15, 105):
            t0 = time.perf_counter()
            r = analyze(parse_word("x^%d" % n), d=2)
            assert time.perf_counter() - t0 < 1.0, n
            assert r.verdict == VERDICT_FT, n
        for n in (2, 4, 8, 12, 24, 6, 48, 96, 144):
            t0 = time.perf_counter()
            r = analyze(parse_word("x^%d" % n), d=2)
            assert time.perf_counter() - t0 < 1.0, n
            assert r.verdict == VERDICT_BURNSIDE, n
        for n in (30, 60, 90):
            t0 = time.perf_counter()
            r = analyze(parse_word("x^%d" % n), d=2)
            assert time.perf_counter() - t0 < 1.0, n
            assert r.verdict == VERDICT_WITNESS, n
            names = [w.name for w in r.witnesses]
            assert "Alt(5)" in names, n
            # Witness certification is exhaustive: every element was checked.
            alt5 = next(w for w in r.witnesses if w.name == "Alt(5)")
            assert alt5.assignments_checked == 60


def test_criterion_02_exponents_by_enumeration(capsys):
    with criterion(capsys, 2, "group exponents by full enumeration"):
        assert group_exponent(alternating(5)) == 30
        assert group_exponent(alternating(6)) == 60
        assert group_exponent(psl2_group(7)) == 84


def test_criterion_03_alternating_bound_oracle(capsys):
    with criterion(capsys, 3, "alternating-stage values against 200-digit oracle"):
        points = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (1, 3), (2, 3),
                  (1, 4), (2, 4), (1, 5), (1, 6)]
        for d, length in points:
            t0 = time.perf_counter()
            b = alt_product_bound(BoundParams(d=d, length=length))
            got = to_real(b)
            assert time.perf_counter() - t0 < 1.0, (d, length)
            with mpmath.workdps(200):
                l = mpmath.mpf(length)
                want = mpmath.exp(l ** 2 * mpmath.ln(l)
                                  * mpmath.exp(d * l * mpmath.ln(l)))
                rel = abs(mpmath.mpf(got) - want) / want
            assert rel < 1e-9, (d, length, float(rel))
        assert abs(to_real(alt_product_bound(BoundParams(d=1, length=2)))
                   - 65536) < 1e-6


def test_criterion_04_recursion_chain(capsys):
    with criterion(capsys, 4, "recursive <= intermediate <= closed on the full sweep"):
        t_start = time.perf_counter()
        ds = (1, 2, 3, 4, 5)
        lengths = (2, 4, 8, 16, 32, 64)
        for d in ds:
            for length in lengths:
                p1 = BoundParams(d=d, length=length, k=1)
                series = anabelian_bound_series(p1, 50)
                base_h = from_real(2 * _scale_part(p1, d)).height
                for k in range(1, 51):
                    ab = series[k - 1]
                    mid = anabelian_intermediate_bound(
                        BoundParams(d=d, length=length, k=k))
                    assert cmp_t(ab.recursive, mid) <= 0, (d, length, k)
                    assert cmp_t(mid, ab.closed) <= 0, (d, length, k)
                    assert ab.closed.height == 2 * k + base_h, (d, length, k)
        # k <= 3 values re-derived at 200 digits must match to 1e-40.
        high = Config(precision=200)
        for d in ds:
            for length in lengths:
                series60 = anabelian_bound_series(BoundParams(d, length, 1), 3)
                mids60 = [anabelian_intermediate_bound(
                    BoundParams(d=d, length=length, k=k)) for k in (1, 2, 3)]
                series200 = anabelian_bound_series(BoundParams(d, length, 1, high), 3)
                mids200 = [anabelian_intermediate_bound(
                    BoundParams(d, length, k, high)) for k in (1, 2, 3)]
                with mpmath.workdps(200):
                    x = mpmath.mpf(2.0) * d * length * mpmath.ln(length)
                    assert x + mpmath.ln(mpmath.ln(2 * x * x)) <= 2 * x
                for k in (1, 2, 3):
                    a60, a200 = series60[k - 1], series200[k - 1]
                    assert close_t(a60.recursive, a200.recursive, tol=1e-40)
                    assert close_t(a60.closed, a200.closed, tol=1e-40)
                    assert close_t(mids60[k - 1], mids200[k - 1], tol=1e-40)
        assert time.perf_counter() - t_start < 10.0


def test_criterion_05_main_bound_height(capsys):
    with criterion(capsys, 5, "main bound for x^30 at d=2 is E_63, deterministic"):
        r1 = main_theorem_bound(parse_word("x^30"), d=2)
        r2 = main_theorem_bound(parse_word("x^30"), d=2)
        x = 2.0 * 2 * 30 * math.log(30)
        assert r1.main_bound.height == 60 + from_real(2 * x).height
        assert r1.main_bound.height == 63
        assert str(r1.main_bound) == str(r2.main_bound)
        assert r1.to_dict() == r2.to_dict()
        cmd = [sys.executable, "-m", "anaburnside.cli",
               "bound", "x^30", "--d", "2", "--json"]
        out1 = subprocess.run(cmd, capture_output=True, check=True).stdout
        out2 = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert out1 == out2
        assert json.loads(out1)["result"]["main_bound_height"] == 63


def test_criterion_06_randomized_tower_checks(capsys):
    with criterion(capsys, 6, "10^4 randomized tower arithmetic checks"):
        rng = random.Random(20260816)
        checks = 0
        for _ in range(3000):
            v = math.exp(rng.uniform(-50, 50))
            t = from_real(v)
            back = to_real(t)
            assert abs(back - v) / v < 1e-45
            assert cmp_t(from_real(back), t) == 0
            checks += 1
        for _ in range(1500):
            h = rng.randint(0, 4)
            t = tower(h, rng.random())
            assert cmp_t(from_real(to_real(t)), t) == 0
            checks += 1
        for _ in range(1500):
            a = math.exp(rng.uniform(-20, 20))
            b = a * (1 + rng.uniform(1e-6, 3.0))
            assert cmp_t(from_real(a), from_real(b)) < 0
            assert cmp_t(from_real(b), from_real(a)) > 0
            checks += 1
        for _ in range(2000):
            x = rng.uniform(0.01, 100.0)
            k = rng.randint(0, 6)
            fx = from_real(x)
            assert cmp_t(big_E(k, fx), big_E(k + 1, fx)) < 0
            y = x * (1 + rng.uniform(0.1, 2.0))
            assert cmp_t(big_E(k, fx), big_E(k, from_real(y))) < 0
            checks += 1
        ranges = {1: 1000.0, 2: 30.0, 3: 3.0}
        for _ in range(1500):
            k = rng.randint(1, 3)
            x = rng.uniform(2.0, ranges[k])
            y = rng.uniform(2.0, ranges[k])
            fx, fy = from_real(x), from_real(y)
            lhs = mul_t(big_E(k, fx), big_E(k, fy))
            rhs = big_E(k, mul_t(fx, fy))
            assert cmp_t(lhs, rhs) <= 0, (k, x, y)
            checks += 1
        # Products of height <= 2 towers against a 200-digit recomputation.
        for _ in range(500):
            a = tower(rng.randint(0, 2), rng.random())
            b = tower(rng.randint(0, 2), rng.random())
            got = mul_t(a, b)
            with working_precision(200):
                want = from_real(to_real(a) * to_real(b))
            assert close_t(got, want, tol=1e-40), (a, b)
            checks += 1
        assert checks == 10000


def test_criterion_07_nonsolvable_length_battery(capsys):
    with criterion(capsys, 7, "nonsolvable lengths, anabelian flags, series check"):
        t_start = time.perf_counter()
        zero = [as_indexed(symmetric(4)), as_indexed(dihedral(4)),
                as_indexed(cyclic(5)), as_indexed(cyclic(12))]
        for g in zero:
            assert nonsolvable_length(g).value == 0
        one = [as_indexed(alternating(5)), as_indexed(symmetric(5)),
               sl25_group(),
               as_indexed(direct_product([cyclic(2), alternating(5)])),
               as_indexed(direct_product([alternating(5), alternating(6)]))]
        for g in one:
            assert nonsolvable_length(g).value == 1
        yes = [as_indexed(alternating(5)), as_indexed(alternating(6)),
               as_indexed(direct_product([alternating(5), alternating(5)])),
               as_indexed(direct_product([alternating(5), alternating(6)]))]
        for g in yes:
            assert is_anabelian(g)
        no = [as_indexed(symmetric(5)), sl25_group(),
              as_indexed(direct_product([cyclic(2), alternating(5)]))]
        for g in no:
            assert not is_anabelian(g)
        for g in yes + no:
            rep = composition_report(g)
            prod = 1
            for o in rep.factor_orders():
                prod *= o
            assert prod == g.order()
        w = wreath(alternating(5), alternating(5))
        assert w.degree == 25
        rep = verify_series_lambda(w, ["trivial", "block_kernel:5", "full"])
        assert rep.value == 2
        assert [f.kind for f in rep.factors] == ["semisimple", "semisimple"]
        assert all(f.nonsolvable for f in rep.factors)
        assert time.perf_counter() - t_start < 60.0


def test_criterion_08_closure_constructions(capsys):
    with criterion(capsys, 8, "200 randomized closure constructions, zero failures"):
        rng = random.Random(20260816)
        a5_perm = alternating(5)
        a5a5_perm = direct_product([a5_perm, a5_perm])
        a5a5 = as_indexed(a5a5_perm)
        minimals_a5a5 = minimal_normal_subgroups(a5a5)
        tables = [densify(a5_perm), densify(psl2_group(4)), densify(psl2_group(5))]
        pair3600 = PairGroup(tables[0], tables[0])
        minimals_pair = minimal_normal_subgroups(pair3600)
        a5i = as_indexed(a5_perm)
        cyclics = {p: densify(cyclic(p)) for p in (2, 3, 5, 7)}
        a5_elements = a5_perm.elements()

        def build_twisted_diagonal():
            r = a5_elements[rng.randrange(60)]
            rinv = r.inverse()
            gens = []
            for g in a5_perm.generators:
                h = rinv * g * r
                images = list(g.images) + [im + 5 for im in h.images]
                gens.append(a5a5.index_of(Permutation(images)))
            closure = subgroup_closure(a5a5, gens)
            return SubgroupView(a5a5, closure, gens)

        def build_conj_semidirect():
            base = tables[rng.randrange(len(tables))]

            def act(h, n):
                return base.mul(base.mul(h, n), base.inv(h))

            return PairGroup(base, base, action=act)

        def build_odd_semidirect():
            pts = rng.sample(range(5), 2)
            t = Permutation.from_cycles(5, [tuple(pts)])
            c2 = cyclics[2]

            def act(h, n):
                if h == c2.identity_index:
                    return n
                return a5i.index_of(t * a5i.perm_of(n) * t)

            return PairGroup(a5i, c2, action=act)

        kinds = ["quotient_a5a5", "quotient_pair", "direct_pair",
                 "conj_semidirect", "diagonal", "abelian_direct",
                 "odd_semidirect"]
        seen = {k: 0 for k in kinds}
        detections = 0
        for step in range(200):
            kind = kinds[rng.randrange(len(kinds))]
            seen[kind] += 1
            if kind == "quotient_a5a5":
                normal = minimals_a5a5[rng.randrange(len(minimals_a5a5))]
                g = QuotientGroup(a5a5, sorted(normal))
                expected = True
            elif kind == "quotient_pair":
                normal = minimals_pair[rng.randrange(len(minimals_pair))]
                g = QuotientGroup(pair3600, sorted(normal))
                expected = True
            elif kind == "direct_pair":
                a = tables[rng.randrange(len(tables))]
                b = tables[rng.randrange(len(tables))]
                g = PairGroup(a, b)
                expected = True
            elif kind == "conj_semidirect":
                g = build_conj_semidirect()
                expected = True
            elif kind == "diagonal":
                g = build_twisted_diagonal()
                expected = True
            elif kind == "abelian_direct":
                p = (2, 3, 5, 7)[rng.randrange(4)]
                if rng.random() < 0.5:
                    g = PairGroup(cyclics[p], tables[rng.randrange(len(tables))])
                else:
                    g = PairGroup(tables[rng.randrange(len(tables))], cyclics[p])
                expected = False
            else:
                g = build_odd_semidirect()
                expected = False
            got = is_anabelian(g)
            assert got == expected, (step, kind, g.order())
            if not expected:
                detections += 1
        assert all(seen[k] > 0 for k in kinds)
        assert detections >= 40


def test_criterion_09_generating_tuples(capsys):
    with criterion(capsys, 9, "generating pairs, automorphisms, largest power"):
        t_start = time.perf_counter()
        pairs = count_generating_tuples(alternating(5), 2)
        assert pairs == 2280
        assert pairs <= 60 ** 2
        aut = automorphism_count(alternating(5))
        assert aut == 120
        power = max_d_generated_power(alternating(5), 2)
        assert power == pairs // aut == 19
        assert power <= 3600
        assert time.perf_counter() - t_start < 30.0


def test_criterion_10_shortest_laws(capsys):
    with criterion(capsys, 10, "shortest-law searches and catalog soundness"):
        t_start = time.perf_counter()
        r = shortest_law_search(alternating(5), max_len=8, num_vars=2)
        assert r.found is None
        assert r.certificate == "none_up_to(8)"
        r = shortest_law_search(alternating(5), max_len=30, num_vars=1)
        assert (to_string(r.found), r.length) == ("x^30", 30)
        r = shortest_law_search(cyclic(2), max_len=4, num_vars=1)
        assert (to_string(r.found), r.length) == ("x^2", 2)
        prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                        29, 31, 32]
        for length in (2, 3, 5, 8, 13, 21, 30, 31, 32):
            cands = candidates_for_law_length(length, 1.0)
            psl_qs = {g.q for g in cands
                      if isinstance(g, LieId) and g.family == "A" and g.k == 1}
            for q in prime_powers:
                assert (q in psl_qs) == (q <= length), (length, q)
        assert time.perf_counter() - t_start < 300.0


def test_criterion_11_catalog_tables(capsys):
    with criterion(capsys, 11, "catalog tables match the frozen oracle, byte-stable"):
        with open(SNAPSHOT, "r", encoding="utf-8") as fh:
            frozen = json.load(fh)
        rows = catalog_table_rows(max_rank=10)
        assert rows == frozen
        assert catalog_table_json(max_rank=10) == catalog_table_json(max_rank=10)
        assert json.dumps(rows, sort_keys=True, separators=(",", ":")) == \
            json.dumps(frozen, sort_keys=True, separators=(",", ":"))
        by_key = {(r["family"], r["k"]): r for r in rows}
        assert by_key[("A", 1)]["b"] == 3
        assert by_key[("2A", 2)]["b"] == 8
        assert by_key[("B", 2)]["b"] == 10
        assert by_key[("B", 3)]["a_low"] == 2
        assert by_key[("B", 3)]["a_high"] == 3
        assert by_key[("D", 4)]["b"] == 28
        assert by_key[("D", 4)]["a_low"] == 2
        assert by_key[("D", 4)]["a_high"] == 3
        assert by_key[("E8", 8)]["b"] == 248
        assert by_key[("2B2", 2)]["b"] == 5
        assert by_key[("2G2", 2)]["b"] == 7
        assert by_key[("G2", 2)]["b"] == 14
