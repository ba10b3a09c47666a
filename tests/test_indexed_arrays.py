"""Differential tests: the array engine against the scalar per-element loops.

Every substrate (permutation, table, cyclic, quotient, subgroup view,
pair) is checked on small groups against `scalar_oracle`, which multiplies
one element at a time from each substrate's definition.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from anaburnside.catalog import factorize
from anaburnside.engine import (
    PermGroup,
    PermIndexedGroup,
    Permutation,
    QuotientGroup,
    TableGroup,
    alternating,
    as_indexed,
    cyclic,
    densify,
    dihedral,
    direct_product,
)
from anaburnside.engine import structure
from anaburnside.engine.indexed import least_in_orbits

from groupfiles import BUILDERS, substrate

FAST = settings(max_examples=40, deadline=None)


names = st.sampled_from(sorted(BUILDERS))


def elements(G, max_size=3):
    return st.lists(st.integers(0, G.n - 1), max_size=max_size)


def test_relabelled_table_moves_the_identity():
    assert substrate("table_s4_relabelled").identity_index != 0


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_products_match_scalar_oracle(name, seed, size):
    # random index arrays from a drawn seed: shrinking toward index 0, often
    # the identity, would leave operand-order faults unseen
    G = substrate(name)
    rng = np.random.default_rng(seed)
    xs, ys = rng.integers(0, G.n, size), rng.integers(0, G.n, size)
    assert G.products(xs, ys).tolist() == \
        [oracle.mul(G, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    j = int(ys[0])
    assert G.products(xs, j).tolist() == [oracle.mul(G, x, j) for x in xs.tolist()]
    i = int(xs[0])
    assert (G.mul(i, j), G.inv(i)) == (oracle.mul(G, i, j), oracle.inv(G, i))


@FAST
@given(names, st.data())
def test_columns_and_inverses_match_scalar_products(name, data):
    G = substrate(name)
    j = data.draw(st.integers(0, G.n - 1))
    assert G.column(j).tolist() == oracle.column(G, j)
    at = data.draw(elements(G, 8))
    assert G.column(j, at=np.array(at, dtype=np.intp)).tolist() == \
        [oracle.mul(G, i, j) for i in at]
    assert G.inverses().tolist() == oracle.inverses(G)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_orders_match_scalar_power_loop(name):
    G = substrate(name)
    expected = [oracle.order_of(G, i) for i in range(G.n)]
    assert G.orders().tolist() == expected
    some = list(range(G.n - 1, -1, -3))
    assert G.orders(some).tolist() == [expected[i] for i in some]
    assert [G.order_of(i) for i in some] == [expected[i] for i in some]


@FAST
@given(names, st.data())
def test_subgroup_closure_matches_scalar(name, data):
    G = substrate(name)
    gens = data.draw(elements(G))
    cap = data.draw(st.none() | st.integers(0, G.n))
    assert structure.subgroup_closure(G, gens, cap=cap) == \
        oracle.subgroup_closure(G, gens, cap=cap)


def test_subgroup_closure_cap_counts_only_added_elements():
    G = substrate("perm_s4")
    e = G.identity_index
    assert structure.subgroup_closure(G, [e], cap=0) == {e}
    assert structure.subgroup_closure(G, [], cap=0) == {e}
    assert structure.subgroup_closure(G, [1], cap=0) is None


def _as_set(result):
    if result is None:
        return None
    return set(np.flatnonzero(result[0]).tolist())


@FAST
@given(names, st.data())
def test_normal_closure_matches_scalar(name, data):
    G = substrate(name)
    seeds = data.draw(elements(G))
    cap = data.draw(st.none() | st.integers(1, G.n))
    reject = data.draw(elements(G, 1))
    rejected = [oracle.normal_closure(G, reject)[0]] if reject else []
    masks = [structure._mask(G, S) for S in rejected]
    got = structure.normal_closure_indexed(G, seeds, cap=cap, reject_supersets=masks)
    want = oracle.normal_closure(G, seeds, cap=cap, reject_supersets=rejected)
    assert _as_set(got) == (None if want is None else want[0])
    if got is not None:
        assert structure.subgroup_closure(G, got[1]) == _as_set(got)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_normal_closure_keeps_only_generators_that_grew_it(name):
    G = substrate(name)
    for x in range(min(G.n, 30)):
        mask, gens = structure.normal_closure_indexed(G, [x, (7 * x + 3) % G.n])
        for i, g in enumerate(gens):
            assert g not in structure.subgroup_closure(G, gens[:i])
        assert 2 ** len(gens) <= structure._size(mask)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_conjugacy_classes_and_minimal_normals_match_scalar(name):
    G = substrate(name)
    assert structure.conjugacy_classes(G) == oracle.conjugacy_classes(G)
    assert structure.minimal_normal_subgroups(G) == oracle.minimal_normal_subgroups(G)


@FAST
@given(names, st.data())
def test_quotient_labels_match_scalar(name, data):
    G = substrate(name)
    seed = data.draw(elements(G, 2))
    normal = oracle.normal_closure(G, seed)[0]
    labels, reps = oracle.coset_labels(G, normal)
    Q = QuotientGroup(G, normal)
    assert Q.labels.tolist() == labels and Q.reps.tolist() == reps


@FAST
@given(names, st.data())
def test_quotient_errors_match_scalar(name, data):
    G = substrate(name)
    gens = data.draw(elements(G, 2))
    subgroup = oracle.subgroup_closure(G, gens)
    extra = data.draw(elements(G, 2))
    drop = data.draw(st.booleans())
    candidate = (subgroup | set(extra)) - ({G.identity_index} if drop else set())
    expected = oracle.coset_labels(G, candidate)
    closed = oracle.subgroup_closure(G, candidate) == candidate
    if isinstance(expected, str) and (closed or "identity" in expected
                                      or "divide" in expected):
        with pytest.raises(ValueError, match=expected):
            QuotientGroup(G, candidate)
    elif not closed:
        # the scalar loop could accept a non-subgroup whose translates
        # happened to tile the group; the array path always refuses it
        with pytest.raises(ValueError, match="not closed"):
            QuotientGroup(G, candidate)
    else:
        Q = QuotientGroup(G, candidate)
        assert (Q.labels.tolist(), Q.reps.tolist()) == expected


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_conjugates_through_kept_columns_match_products(name):
    G = substrate(name)
    xs, inv = np.arange(G.n), G.inverses()
    for g in G.generator_indices:
        assert G.conjugates(xs, g).tolist() == \
            G.products(inv[G.products(inv[xs], g)], g).tolist()
    assert sorted(G.generator_columns()) == sorted(G.generator_indices)


@FAST
@given(names, st.data())
def test_quotient_checks_the_generators_it_is_given(name, data):
    G = substrate(name)
    normal, closure_gens = oracle.normal_closure(G, data.draw(elements(G, 2)))
    inside = sorted(normal)
    gens = data.draw(st.one_of(
        st.just(list(closure_gens)),
        st.lists(st.sampled_from(inside), max_size=3),
        elements(G, 3)))
    if oracle.subgroup_closure(G, gens) != normal:
        with pytest.raises(ValueError, match="do not generate"):
            QuotientGroup(G, normal, gens)
        return
    Q, greedy = QuotientGroup(G, normal, gens), QuotientGroup(G, normal)
    assert Q.labels.tolist() == greedy.labels.tolist()
    assert Q.reps.tolist() == greedy.reps.tolist()
    assert (Q.n, Q.generator_indices) == (greedy.n, greedy.generator_indices)


@pytest.mark.parametrize("name", [n for n in sorted(BUILDERS) if not n.startswith(("perm", "table"))])
def test_densify_builds_the_scalar_table(name):
    G = substrate(name)
    T = densify(G)
    assert T.table.T.tolist() == [oracle.column(G, j) for j in range(G.n)]
    assert T.identity_index == G.identity_index


@FAST
@given(names, st.integers(-130, 130) | st.sampled_from([420, -420, 0]))
def test_power_indexes_match_repeated_products(name, e):
    G = substrate(name)
    want = oracle.power_indexes(G, e)
    assert G.powers(e).tolist() == want
    some = np.arange(G.n)[::-3]
    assert G.powers(e, some).tolist() == [want[i] for i in some]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_prime_order_selection_matches_element_orders(name):
    G = substrate(name)
    everything = np.arange(G.n)
    reps = np.flatnonzero(structure._class_least(G) == everything)
    for xs in (everything, reps, reps[::-1]):
        orders = G.orders(xs).tolist()
        want = [factorize(o) == ((o, 1),) for o in orders]
        assert structure._of_prime_order(G, xs).tolist() == want


@FAST
@given(st.data())
def test_table_validation_reports_the_scalar_error(data):
    base = data.draw(st.sampled_from(["table_c12", "table_s4_relabelled"]))
    table = substrate(base).table.tolist()
    n = len(table)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["entry", "swap_rows", "swap_cols"]))
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if kind == "entry":
            table[a][b] = data.draw(st.integers(0, n - 1))
        elif kind == "swap_rows":
            table[a], table[b] = table[b], table[a]
        else:
            for row in table:
                row[a], row[b] = row[b], row[a]
    expected = oracle.table_error(table)
    try:
        TableGroup(table)
        error = None
    except ValueError as exc:
        error = str(exc)
    if expected is not None:
        assert error == expected
    elif oracle.is_associative(table):
        assert error is None
    else:
        assert error.startswith("table not associative")


def _long_cycle_group(lengths):
    """Cyclic permutation group of one element with these disjoint cycles."""
    images, start = [], 0
    for c in lengths:
        images += [start + (i + 1) % c for i in range(c)]
        start += c
    return PermGroup(start, [Permutation(images)])


# one generator of order 60060: a Cayley graph of diameter 60059
LONG_CYCLES = (3, 4, 5, 7, 11, 13)


@pytest.mark.parametrize("group", [
    PermGroup(3, []),
    direct_product([alternating(5), alternating(6)]),
    dihedral(20),
    PermGroup(130, [Permutation([(i + 1) % 130 for i in range(130)])], degree_cap=130),
    _long_cycle_group(LONG_CYCLES),
], ids=["trivial", "a5xa6", "dihedral20", "cyclic130", "cyclic60060"])
def test_perm_index_order_is_lexicographic(group):
    G = PermIndexedGroup(group)
    assert [tuple(r) for r in G.rows.tolist()] == sorted(p.images for p in group.elements())
    assert G.identity_index == 0
    rng = random.Random(5)
    for _ in range(20):
        i, j = rng.randrange(G.n), rng.randrange(G.n)
        assert G.perm_of(G.mul(i, j)) == G.perm_of(i) * G.perm_of(j)
        assert G.index_of(G.perm_of(i)) == i
    with pytest.raises(KeyError):  # a transposition lies in none of these groups
        G.index_of(Permutation([1, 0] + list(range(2, group.degree))))


def test_least_in_orbits_long_cycles():
    # the minimum spreads both ways along a map, so one long cycle, in index
    # order or shuffled, takes a few passes rather than one per element
    n = 100_000
    shuffled = np.random.default_rng(3).permutation(n)
    step = np.empty(n, dtype=np.intp)
    step[shuffled] = np.roll(shuffled, 1)
    start = time.perf_counter()
    for m in (np.roll(np.arange(n), -1), step):
        assert not least_in_orbits(n, [m]).any()
    halves = np.concatenate((np.roll(np.arange(n // 2), -1), n // 2 + np.roll(np.arange(n // 2), 1)))
    assert least_in_orbits(n, [halves]).tolist() == [0] * (n // 2) + [n // 2] * (n // 2)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("group", [cyclic(2039), _long_cycle_group(LONG_CYCLES)],
                         ids=["table_c2039", "perm_c60060"])
def test_long_diameter_quotients(group):
    start = time.perf_counter()
    G = as_indexed(group)
    whole = QuotientGroup(G, range(G.n))
    assert whole.n == 1 and whole.reps.tolist() == [0]
    trivial = QuotientGroup(G, [G.identity_index])
    assert trivial.labels.tolist() == trivial.reps.tolist() == list(range(G.n))
    assert time.perf_counter() - start < 5
