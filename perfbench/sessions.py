"""The two in-process workloads: one library session each.

A session builds its inputs from the seed, then runs rounds. Every round
makes the same calls in the same order, times them into named totals and
checks each output against the oracles. The seed picks exponents, ladder
jitter and call order; the kind and size of every input, and so the work
of a round, are the same for every seed.
"""

import math
import random
import time

import oracles as O

D = 2


class Round:
    """Timings and outcomes of one round.

    `times` holds the seconds spent in calls of each kind; their sum is the
    round's time. With a reference, the kernel is sampled at the start,
    after every reference.INTERVAL seconds of calls, and at the end, and
    `in_reference_units` divides each call by the two samples around it.
    `assignments` counts law-check assignments certified.
    """

    def __init__(self, reference=None):
        self.times = {}
        self.assignments = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = reference
        self.refs = [reference.sample()] if reference else []
        self._calls = []        # (kind, seconds, index of the sample before)

    def finish(self):
        if self.reference:
            self.refs.append(self.reference.sample())
        return self

    def call(self, kind, fn, *args):
        """Time fn(*args) under `kind`; an exception counts as a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append("%s: %s: %r" % (kind, type(exc).__name__, exc))
            return None
        finally:
            spent = time.perf_counter() - t0
            self.times[kind] = self.times.get(kind, 0.0) + spent
            if self.reference:
                self._calls.append((kind, spent, len(self.refs) - 1))
                if self.reference.due(spent):
                    self.refs.append(self.reference.sample())

    def expect(self, ok, what):
        if not ok:
            self.errors.append("wrong output: " + what)

    def in_reference_units(self):
        """Time per kind, each call over the mean of the samples around it."""
        out = {}
        for kind, spent, i in self._calls:
            local = (self.refs[i] + self.refs[i + 1]) / 2
            out[kind] = out.get(kind, 0.0) + spent / local
        return out


# ---------------------------------------------------------------------------
# verdicts

def _power(n):
    return "x^%d" % n, [(1, n)]


def _commutator(a, b):
    """[x^a, y^b] = x^-a y^-b x^a y^b."""
    text = "[%s,%s]" % ("x" if a == 1 else "x^%d" % a, "y" if b == 1 else "y^%d" % b)
    return text, [(1, -a), (2, -b), (1, a), (2, b)]


def _reduce(syllables):
    out = []
    for g, e in syllables:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return out


def _print(syllables):
    names = "xyzw"
    return " ".join(names[g - 1] if e == 1 else "%s^%d" % (names[g - 1], e)
                    for g, e in syllables)


def draw_laws(rng):
    """(text, syllables, kind) for one of each case, all at d = 2.

    The size bound attached to every report costs time linear in the word
    length, so each seeded choice keeps the length (and the witness set)
    of its case nearly fixed.
    """
    laws = []
    laws.append(_power(rng.choice(range(95, 106, 2))) + ("odd",))
    a = rng.choice((1, 3, 5, 7))
    syl = [(1, 5 * a), (2, 5 * (16 - a))]
    laws.append((_print(syl), syl, "odd"))
    laws.append(_power(rng.choice((96, 98, 100, 104))) + ("burnside",))
    for n in (30, 60, 420):
        laws.append(_power(n) + ("witness",))
    laws.append(_power(rng.choice((66, 70, 78))) + ("unknown",))
    laws.append(_commutator(*rng.choice(((21, 12), (25, 8), (15, 18), (29, 4))))
                + ("factors",))
    laws.append(_commutator(*rng.choice(((30, 1), (1, 30)))) + ("bare",))
    laws.append(_commutator(*rng.choice(((1, 11), (1, 13), (11, 1), (13, 1))))
                + ("bare",))
    k = rng.choice((2, 3))
    syl = _reduce([(1, -1), (2, -1), (1, 1), (2, 1)] * k)
    laws.append(("[x,y]^%d" % k, syl, "derived"))
    a = rng.choice((2, 3, 4))
    comm = [(1, -1), (2, -1), (1, 1), (2, 1)]
    inv = [(g, -e) for g, e in reversed(comm)]
    syl = _reduce(inv + [(1, -a)] + comm + [(1, a)])
    laws.append(("[[x,y],x^%d]" % a, syl, "derived"))
    rng.shuffle(laws)
    return laws


def _expected_report(syllables, kind, cap, c):
    """What analyze must return for a word built as `kind`."""
    length = sum(abs(e) for _, e in syllables)
    exp = {"length": length, "bound": O.closed_bound(length, D, c)}
    if kind == "derived":
        exp.update(case="derived", verdict=O.UNKNOWN, exponent=None, witnesses=())
        return exp
    if kind in ("factors", "bare"):
        a, b = -syllables[0][1], -syllables[1][1]
        exp.update(case="disjoint_commutator")
        if kind == "factors":
            exp.update(verdict=O.FACTORS, witnesses=(), exponent=None)
        else:
            verdict, witnesses = O.periodic_verdict(a if b == 1 else b, cap)
            exp.update(verdict=verdict, witnesses=witnesses, exponent=None)
        return exp
    n = 0
    for t in O.exponent_sums(syllables, D):
        n = math.gcd(n, abs(t))
    verdict, witnesses = O.periodic_verdict(n, cap)
    exp.update(case="periodic", verdict=verdict, witnesses=witnesses, exponent=n)
    if verdict == O.BURNSIDE:
        f = O.prime_factors(n)
        odd = [(p, e) for p, e in f.items() if p != 2]
        exp["burnside"] = (f.get(2, 0),) + (odd[0] if odd else (None, 0))
    return exp


LADDER_BANDS = (4, 30, 120, 350, 700, 1200)


def draw_ladder(rng):
    """Law lengths up to the low thousands, each within 1 % of its band."""
    return [max(2, round(b * (1 + rng.uniform(-0.01, 0.01)))) for b in LADDER_BANDS]


class Verdicts:
    name = "verdicts"
    warmup = True      # the first round fills the analyzer's pool cache

    def __init__(self, ab, seed):
        self.ab = ab
        rng = random.Random(seed)
        self.laws = draw_laws(rng)
        self.ladder = draw_ladder(rng)
        self.config = ab.config.Config()

    def prepare_oracles(self):
        cap, c = self.config.cayley_cap, self.config.c
        self.expected = [_expected_report(syl, kind, cap, c) for _, syl, kind in self.laws]
        self.expected_ladder = [O.closed_bound(L, D, c) for L in self.ladder]

    def round(self, reference=None):
        r = Round(reference)
        words, analyzer, bounds = self.ab.words, self.ab.analyzer, self.ab.bounds
        for (text, _, kind), exp in zip(self.laws, self.expected):
            rep = r.call("analyze", lambda t=text: analyzer.analyze(words.parse_word(t), D))
            if rep is not None:
                self._check_report(r, text, rep, exp)
        heights = []
        for L, (h, idx) in zip(self.ladder, self.expected_ladder):
            rep = r.call("bound", lambda n=L: bounds.main_theorem_bound(
                words.parse_word("x^%d" % n), D))
            if rep is None:
                continue
            mb = rep.main_bound
            r.expect(rep.lambda_used == L and mb.height == h and O.index_matches(idx, mb.index),
                     "bound x^%d: %s, expected E_%d(%s)" % (L, mb, h, O.mp.nstr(idx, 8)))
            heights.append(mb.height)
        r.expect(heights == sorted(heights), "main-bound height decreased along the ladder")
        return r.finish()

    @staticmethod
    def _check_report(r, text, rep, exp):
        what = "analyze %s" % text
        r.expect(rep.case == exp["case"], "%s: case %s" % (what, rep.case))
        r.expect(rep.verdict == exp["verdict"], "%s: verdict %s, expected %s"
                 % (what, rep.verdict, exp["verdict"]))
        r.expect(rep.exponent == exp["exponent"], "%s: exponent %s" % (what, rep.exponent))
        if "burnside" in exp:
            r.expect(tuple(rep.burnside) == exp["burnside"],
                     "%s: burnside %s" % (what, rep.burnside))
        got = [(w.name, w.exponent, w.assignments_checked) for w in rep.witnesses]
        r.expect(got == list(exp["witnesses"]), "%s: witnesses %s, expected %s"
                 % (what, got, list(exp["witnesses"])))
        h, idx = exp["bound"]
        mb = rep.bound.main_bound
        r.expect(rep.length == exp["length"] and mb.height == h
                 and O.index_matches(idx, mb.index),
                 "%s: bound %s, expected E_%d(%s)" % (what, mb, h, O.mp.nstr(idx, 8)))


# ---------------------------------------------------------------------------
# structure

ALT5 = ("alt", 5)
LAMBDA_GROUPS = (
    ("psl2", 7), ("psl2", 8), ("sym", 5),
    ("direct", ALT5, ("sym", 4)),
    ("direct", ALT5, ("alt", 6)),
    ("wreath", ALT5, ("cyc", 2)),
    ("wreath", ("sym", 4), ("cyc", 3)),
)
SERIES_GROUPS = (
    ("wreath", ALT5, ALT5),
    ("wreath", ALT5, ("cyc", 2)),
    ("wreath", ALT5, ("sym", 3)),
    ("wreath", ("alt", 6), ("cyc", 2)),
)
# rank-1 and [x,y] checks need |G|^rank under the exhaustive cap
SMALL_ORDER = 10_000
LAW_GROUP = ("alt", 6)


# multipliers of the exponent, and exponents it does not divide: each
# seed shuffles the same lists, so the power tables cost the same
MULTIPLIERS = (1, 1, 2, 2, 3, 3, 5, 7, 7)
NON_MULTIPLES = (12, 20, 45, 98)


def draw_rank2_laws(rng, e):
    """Rank-2 laws on a simple non-abelian group of exponent e, with the
    expected verdict.

    Such a group satisfies [x^a, y^b] exactly when e | a or e | b (two
    commuting normal subgroups generated by powers would make it abelian),
    and x^a y^b exactly when e | a and e | b.
    """
    mults = [e * m for m in MULTIPLIERS]
    nons = list(NON_MULTIPLES)
    rng.shuffle(mults)
    rng.shuffle(nons)
    m, u = iter(mults), iter(nons)
    laws = [("x^%d y^%d" % (next(m), next(m)), True),
            ("[x^%d,y^%d]" % (next(m), next(u)), True),
            ("[x^%d,y^%d]" % (next(u), next(m)), True),
            ("x^%d y^%d x^%d y^%d" % (next(m), next(m), next(m), next(m)), True),
            ("[x^%d,y]" % next(u), False),
            ("x^%d y^%d" % (next(m), next(u)), False)]
    rng.shuffle(laws)
    return laws


class Structure:
    name = "structure"
    warmup = False

    def __init__(self, ab, seed):
        self.ab = ab
        rng = random.Random(seed)
        small = ("psl2", rng.choice((4, 5)))
        self.groups = [small] + list(LAMBDA_GROUPS)
        rng.shuffle(self.groups)
        self.series = list(SERIES_GROUPS)
        rng.shuffle(self.series)
        law_exp = O.exponent(LAW_GROUP)
        self.rank2 = draw_rank2_laws(rng, law_exp)
        # one prime divisor per group, to build a power law that must fail
        self.prime_pick = rng.random()
        elements = O.enumerate_group(O.alternating_gens(LAW_GROUP[1]))
        self.table = O.cayley_table(elements)

    def prepare_oracles(self):
        self.expected = {g: (O.composition(g), O.nonsolvable_length(g), O.order(g))
                         for g in set(self.groups) | set(self.series)}

    def round(self, reference=None):
        r = Round(reference)
        engine, words = self.ab.engine, self.ab.words
        for g in self.groups:
            desc = O.descriptor(g)
            G = r.call("make_group", engine.make_group, desc)
            if G is None:
                continue
            comp_exp, lam_exp, order = self.expected[g]
            lam = r.call("lambda", engine.nonsolvable_length, G)
            if lam is not None:
                r.expect(lam.value == lam_exp and lam.exact,
                         "lambda %s = %s, expected %d" % (desc, lam.summary(), lam_exp))
            comp = r.call("lambda", engine.composition_report, G)
            if comp is not None:
                got = sorted((f.kind, f.order) for f in comp.factors)
                no_cyclic = not any(k == "cyclic" for k, _ in comp_exp)
                r.expect(got == comp_exp and comp.group_order == order
                         and comp.anabelian == no_cyclic,
                         "composition %s: %s anabelian=%s" % (desc, got, comp.anabelian))
            if order <= SMALL_ORDER:
                self._power_laws(r, g, G, order)
        for g in self.series:
            desc = O.descriptor(g)
            W = r.call("make_group", engine.make_group, desc)
            if W is None:
                continue
            series = ["trivial", "block_kernel:%d" % O.degree(g[1]), "full"]
            rep = r.call("series", engine.verify_series_lambda, W, series)
            if rep is not None:
                r.expect(rep.value == self.expected[g][1],
                         "series lambda %s = %d" % (desc, rep.value))
        A = r.call("make_group", engine.make_group, O.descriptor(LAW_GROUP))
        T = r.call("table", engine.TableGroup, self.table)
        if A is None or T is None:
            return r.finish()
        n = len(self.table)
        for text, holds in self.rank2:
            w = words.parse_word(text)
            vp = r.call("lawcheck", engine.is_law, w, A)
            vt = r.call("lawcheck", engine.is_law, w, T)
            if vp is None or vt is None:
                continue
            r.expect(vp.holds == holds and vt.holds == holds
                     and vp.checked == vt.checked
                     and (not holds or vp.checked == n * n),
                     "%s on perm/table: %s/%s checked %d/%d"
                     % (text, vp.holds, vt.holds, vp.checked, vt.checked))
            if holds:
                r.assignments += vp.checked + vt.checked
        return r.finish()

    def _power_laws(self, r, g, G, order):
        """x^e holds iff the exponent divides e; [x,y] fails (non-abelian)."""
        engine, words = self.ab.engine, self.ab.words
        v = r.call("powerlaw", engine.is_law, words.parse_word("[x,y]"), G)
        if v is not None:
            r.expect(not v.holds, "[x,y] holds on %s" % O.descriptor(g))
        e = O.exponent(g)
        if e is None:
            return
        primes = sorted(O.prime_factors(e))
        p = primes[int(self.prime_pick * len(primes))]
        for n, holds in ((e, True), (e // p, False)):
            v = r.call("powerlaw", engine.is_law, words.parse_word("x^%d" % n), G)
            if v is not None:
                r.expect(v.holds == holds and (not holds or v.checked == order),
                         "x^%d on %s: holds=%s checked %d"
                         % (n, O.descriptor(g), v.holds, v.checked))
