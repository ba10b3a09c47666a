"""Normal structure as loops over quotients.

Minimal normal subgroups are checked against their definition on products
with Sym(5), where a closure met early can be larger than the minimal
normal subgroup it contains. The
radical, socle, nonsolvable length and composition series are checked
against the recursions the loops replaced (`structure_oracle`), and the
semisimplicity rule against the per-part test. Each derived term that
`is_solvable` takes as a normal closure in the whole group is checked
against the closure under the previous term's own generators.
"""

import random
from collections import Counter

import numpy as np
import pytest

import scalar_oracle
import structure_oracle as old
from anaburnside.catalog import factorize
from anaburnside.engine import (
    PairGroup,
    Permutation,
    QuotientGroup,
    SubgroupView,
    alternating,
    as_indexed,
    composition_report,
    conjugacy_classes,
    cyclic,
    densify,
    direct_product,
    is_semisimple,
    make_group,
    minimal_normal_subgroups,
    nonsolvable_length,
    psl2_group,
    socle,
    solvable_radical,
    subgroup_closure,
)
from anaburnside.engine import structure

from groupfiles import BUILDERS, S5_FAMILY, WORKLOAD_GROUPS, substrate


def _engine_closure(G, g):
    return np.flatnonzero(structure.normal_closure_indexed(G, [g])[0]).tolist()


def _definition(G):
    """Minimal normal subgroups by definition; past a few hundred elements
    the classes and closures come from the array engine, whose own
    differential tests check them against the scalar loops."""
    if G.n <= 720:
        return scalar_oracle.minimal_normal_subgroups(G)
    return scalar_oracle.minimal_normal_subgroups(G, conjugacy_classes, _engine_closure)


@pytest.mark.parametrize("desc", sorted(S5_FAMILY))
def test_s5_family_normal_structure(desc):
    mins, soc, lam, comp = S5_FAMILY[desc]
    G = as_indexed(make_group(desc))
    got = minimal_normal_subgroups(G)
    assert got == _definition(G)
    assert [len(S) for S in got] == mins
    assert len(socle(G)[0]) == soc
    rep = nonsolvable_length(G)
    assert rep.value == 1
    assert [(f.kind, f.order) for f in rep.factors] == lam
    assert Counter(f.name for f in composition_report(G).factors) == comp


CENTRALIZER_TEST_GROUPS = (
    "direct_product(alternating(5),alternating(6))",
    "wreath(symmetric(4),cyclic(3))",
    "wreath(alternating(5),cyclic(2))",
)


def _check_minimal_normals(G):
    # the centralizer test leaves the minimal normal subgroups and the
    # generators kept for each as they are by definition
    assert minimal_normal_subgroups(G) == _definition(G)
    for S, gens in structure._minimal_normals_with_gens(G):
        mask, _ = structure.normal_closure_indexed(G, list(gens))
        assert (mask == S).all()


@pytest.mark.parametrize("desc", CENTRALIZER_TEST_GROUPS)
def test_minimal_normals_skipping_non_centralizing_candidates(desc):
    _check_minimal_normals(as_indexed(make_group(desc)))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_minimal_normals_skipping_non_centralizing_candidates_on_substrates(name):
    _check_minimal_normals(BUILDERS[name]())


@pytest.mark.parametrize("desc, skipped", [(CENTRALIZER_TEST_GROUPS[0], 7),
                                           (CENTRALIZER_TEST_GROUPS[1], 12)])
def test_centralizer_test_skips_closures(desc, skipped, monkeypatch):
    # every prime-order class representative is either closed or skipped
    G = as_indexed(make_group(desc))
    closed = []
    closure = structure.normal_closure_indexed
    monkeypatch.setattr(structure, "normal_closure_indexed",
                        lambda G, seeds, **kwargs: closed.append(seeds) or closure(G, seeds, **kwargs))
    structure._find_minimal_normals(G)
    primes = {p for p, _ in factorize(G.n)}
    reps = sum(1 for c in conjugacy_classes(G) if G.order_of(c[0]) in primes)
    assert reps - len(closed) == skipped


def test_semisimple_needs_the_true_minimal_normals():
    # the closure of a transposition (all of Sym(5)) once hid Alt(5), and
    # Alt(5) and Sym(5) multiply to |Sym(5) x Alt(5)|
    G = as_indexed(make_group("direct_product(symmetric(5),alternating(5))"))
    assert not is_semisimple(G)
    assert not old.is_semisimple(G)


def _check_against_recursions(G):
    value, factors = old.nonsolvable_length(G)
    rep = nonsolvable_length(G)
    assert (rep.value, rep.factors) == (value, tuple(factors))
    assert solvable_radical(G) == structure._frozen(old.radical(G))
    S, gens = old.socle(G)
    assert socle(G) == (structure._frozen(S), gens)
    factors, series = old.composition(G)
    comp = composition_report(G)
    assert comp.factors == tuple(factors)
    assert comp.series == tuple(series)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_loops_match_recursions_on_substrates(name):
    _check_against_recursions(substrate(name))


@pytest.mark.parametrize("desc", WORKLOAD_GROUPS + tuple(sorted(S5_FAMILY)))
def test_loops_match_recursions_on_workload_groups(desc):
    _check_against_recursions(as_indexed(make_group(desc)))


def _check_derived_series(G, monkeypatch):
    # is_solvable takes each term as a normal closure in G; it must equal
    # the closure under the previous term's own generators, and a closure
    # given up at its cap must be the whole previous term
    terms = []
    closure = structure.normal_closure_indexed

    def recorded(G, seeds, **kwargs):
        terms.append((list(seeds), closure(G, seeds, **kwargs)))
        return terms[-1][1]

    monkeypatch.setattr(structure, "normal_closure_indexed", recorded)
    solvable = structure.is_solvable(G)
    assert terms
    gens, previous = G.generator_indices, frozenset(range(G.n))
    for k, (seeds, term) in enumerate(terms):
        # the batched commutators are the scalar ones, in the same order
        comms = [G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
                 for i, a in enumerate(gens) for b in gens[i + 1:]]
        assert seeds == comms
        want, _ = scalar_oracle.normal_closure(G, comms, conjugators=gens)
        if term is None:
            assert want == previous
            assert k == len(terms) - 1 and not solvable
            break
        mask, gens = term
        assert structure._frozen(mask) == want
        previous = want
    else:
        assert solvable and len(previous) == 1


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_derived_series_matches_closure_in_each_term_on_substrates(name, monkeypatch):
    _check_derived_series(substrate(name), monkeypatch)


@pytest.mark.parametrize("desc", WORKLOAD_GROUPS)
def test_derived_series_matches_closure_in_each_term_on_workload_groups(desc, monkeypatch):
    _check_derived_series(as_indexed(make_group(desc)), monkeypatch)


def test_semisimple_rule_matches_per_part_test():
    # criterion-08-style random direct and semidirect products
    rng = random.Random(20261019)
    a5 = alternating(5)
    a5i = as_indexed(a5)
    a5a5 = as_indexed(direct_product([a5, a5]))
    tables = [densify(a5), densify(psl2_group(4)), densify(psl2_group(5))]
    cyclics = [densify(cyclic(p)) for p in (2, 3, 5)]
    small = cyclics + [densify(make_group(d)) for d in ("symmetric(3)", "alternating(4)")]

    def conj_semidirect(base):
        return PairGroup(base, base, action=lambda h, n: base.mul(base.mul(h, n), base.inv(h)))

    def odd_semidirect():
        t = Permutation.from_cycles(5, [tuple(rng.sample(range(5), 2))])

        def act(h, n):
            if h == cyclics[0].identity_index:
                return n
            return a5i.index_of(t * a5i.perm_of(n) * t)

        return PairGroup(a5i, cyclics[0], action=act)

    def twisted_diagonal():
        r = a5.elements()[rng.randrange(60)]
        gens = [a5a5.index_of(Permutation(list(g.images)
                                          + [i + 5 for i in (r.inverse() * g * r).images]))
                for g in a5.generators]
        return SubgroupView(a5a5, subgroup_closure(a5a5, gens), gens)

    builders = [
        lambda: PairGroup(rng.choice(tables), rng.choice(tables)),
        lambda: PairGroup(rng.choice(small), rng.choice(tables)),
        lambda: PairGroup(rng.choice(tables), rng.choice(small)),
        lambda: PairGroup(rng.choice(small), rng.choice(small)),
        lambda: conj_semidirect(rng.choice(tables)),
        lambda: QuotientGroup(a5a5, sorted(rng.choice(minimal_normal_subgroups(a5a5)))),
        odd_semidirect,
        twisted_diagonal,
    ]
    seen = Counter()
    for _ in range(40):
        G = rng.choice(builders)()
        want = old.is_semisimple(G)
        assert is_semisimple(G) == want
        seen[want] += 1
    assert seen[True] >= 10 and seen[False] >= 10


@pytest.mark.parametrize("desc", WORKLOAD_GROUPS)
def test_quotients_given_generators_match_greedy_ones(desc, monkeypatch):
    # every quotient the loops build from a closure's generators is the one
    # built from a greedy generating set of the same subgroup
    built = []

    class Recorded(QuotientGroup):
        def __init__(self, parent, normal_indices, generators=None):
            super().__init__(parent, normal_indices, generators)
            built.append((parent, normal_indices, generators, self))

    monkeypatch.setattr(structure, "QuotientGroup", Recorded)
    G = as_indexed(make_group(desc))
    nonsolvable_length(G)
    composition_report(G)
    for parent, normal, gens, Q in built:
        assert gens is not None
        greedy = QuotientGroup(parent, normal)
        assert Q.labels.tolist() == greedy.labels.tolist()
        assert Q.reps.tolist() == greedy.reps.tolist()
        assert (Q.n, Q.generator_indices) == (greedy.n, greedy.generator_indices)


def test_lambda_then_composition_find_the_minimal_normals_once(monkeypatch):
    group = make_group("direct_product(alternating(5),alternating(6))")
    found = []
    find = structure._find_minimal_normals
    monkeypatch.setattr(structure, "_find_minimal_normals",
                        lambda G: found.append(G) or find(G))
    nonsolvable_length(group)
    composition_report(group)
    top = as_indexed(group)
    assert sum(G is top for G in found) == 1
    mins = structure._minimal_normals_with_gens(top)
    assert structure._minimal_normals_with_gens(top) is mins
    for S, _ in mins:
        with pytest.raises(ValueError, match="read-only"):
            S[0] = not S[0]
