"""Indexed group substrates: tables, permutation indexes, views, quotients, pairs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anaburnside.engine import (
    CyclicGroup,
    PairGroup,
    PermGroup,
    PermIndexedGroup,
    QuotientGroup,
    SubgroupView,
    TableGroup,
    Permutation,
    alternating,
    as_indexed,
    cyclic,
    densify,
    dihedral,
    direct_product,
    make_group,
    symmetric,
)
from anaburnside.engine.perm import invert_rows, key_weights
from anaburnside.engine.structure import subgroup_closure
from anaburnside.errors import CapExceeded

from groupfiles import PERM_GROUPS, WORKLOAD_GROUPS, sl25_group


def test_table_group_accepts_klein_four():
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    g = TableGroup(table)
    assert g.order() == 4
    assert g.identity_index == 0
    assert all(g.mul(i, i) == 0 for i in range(4))
    assert all(g.inv(i) == i for i in range(4))
    assert all(g.order_of(i) == 2 for i in range(1, 4))


def test_table_group_rejects_bad_tables():
    with pytest.raises(ValueError):
        TableGroup([[0, 1], [1, 1]])
    # Latin square with no two-sided identity.
    with pytest.raises(ValueError):
        TableGroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    # Latin square with identity but not associative: order-5 loop.
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError):
        TableGroup(loop)
    # C_2 x loop, element 2q + c: the first generator found, (1, e), is in
    # the nucleus, so only the second generator shows the failure
    doubled = [[2 * loop[i // 2][j // 2] + (i + j) % 2 for j in range(10)] for i in range(10)]
    with pytest.raises(ValueError, match="table not associative"):
        TableGroup(doubled)


def test_table_group_rejects_a_large_loop():
    # the cyclic table of order 600 with one intercalate swapped: still a
    # Latin square with a two-sided identity and inverses, but not a group
    n = 600
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for row in (1, 301):
        table[row][2], table[row][302] = table[row][302], table[row][2]
    with pytest.raises(ValueError, match="table not associative"):
        TableGroup(table)


def test_perm_indexed_round_trip():
    gi = PermIndexedGroup(symmetric(4))
    assert gi.n == 24
    for i in range(gi.n):
        p = gi.perm_of(i)
        assert gi.index_of(p) == i
        assert gi.mul(i, gi.inv(i)) == gi.identity_index
        assert gi.order_of(i) == p.order()
    a, b = 5, 17
    assert gi.perm_of(gi.mul(a, b)) == gi.perm_of(a) * gi.perm_of(b)


def test_as_indexed_idempotent():
    g = as_indexed(alternating(5))
    assert as_indexed(g) is g


def test_a_perm_group_is_indexed_once():
    group = alternating(5)
    g = as_indexed(group)
    assert as_indexed(group) is g and as_indexed(group, cap=60) is g
    with pytest.raises(CapExceeded, match="order 60 exceeds cayley_cap 59"):
        as_indexed(group, cap=59)
    assert as_indexed(group) is g
    # a group not yet indexed refuses a small cap too, and keeps no index
    fresh = alternating(5)
    with pytest.raises(CapExceeded):
        as_indexed(fresh, cap=59)
    assert as_indexed(fresh) is not g
    assert g.n == 60


def test_subgroup_view():
    gi = as_indexed(symmetric(4))
    gens = [i for i in range(gi.n) if gi.order_of(i) == 3][:1]
    closure = subgroup_closure(gi, gens)
    sub = SubgroupView(gi, closure, generator_globals=gens)
    assert sub.order() == 3
    local = sub.to_local(gens[0])
    assert sub.order_of(local) == 3
    assert sub.mul(local, sub.inv(local)) == sub.identity_index


def test_quotient_group():
    gi = as_indexed(symmetric(4))
    # The Klein four-group inside S_4: identity plus the three double swaps.
    doubles = [i for i in range(gi.n)
               if gi.perm_of(i).cycles() and
               sorted(len(c) for c in gi.perm_of(i).cycles()) == [2, 2]]
    normal = [gi.identity_index] + doubles
    q = QuotientGroup(gi, normal)
    assert q.order() == 6
    orders = sorted(q.order_of(i) for i in range(q.n))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_quotient_rejects_non_normal():
    gi = as_indexed(symmetric(4))
    transposition = next(i for i in range(gi.n)
                         if gi.perm_of(i).cycles() and
                         [len(c) for c in gi.perm_of(i).cycles()] == [2])
    with pytest.raises(ValueError):
        QuotientGroup(gi, [gi.identity_index, transposition])


def test_pair_group_direct_product():
    a = densify(cyclic(6))
    b = densify(cyclic(4))
    g = PairGroup(a, b)
    assert g.order() == 24
    assert max(g.order_of(i) for i in range(g.n)) == 12
    i = g.join(1, 1)
    assert g.split(i) == (1, 1)
    assert g.mul(i, g.inv(i)) == g.identity_index


def test_pair_group_semidirect():
    n = densify(cyclic(7))
    h = densify(cyclic(3))

    def act(hpart, x):
        # Powers of 2 have order 3 in (Z/7)*; h acts as multiplication by 2^h.
        return (x * pow(2, hpart, 7)) % 7

    g = PairGroup(n, h, action=act)
    assert g.order() == 21
    orders = sorted({g.order_of(i) for i in range(g.n)})
    assert orders == [1, 3, 7]

    def bad(hpart, x):
        return (x + hpart) % 7

    with pytest.raises(ValueError):
        PairGroup(n, h, action=bad)


def _inversion_pair(swap):
    """C_30030 x| C_2 with C_2 acting by inversion; with `swap`, the images of
    the generator and its square under the involution are exchanged."""
    cycles, images, start = (2, 3, 5, 7, 11, 13), [], 0
    for c in cycles:
        images += [start + (i + 1) % c for i in range(c)]
        start += c
    n = PermIndexedGroup(PermGroup(start, [Permutation(images)]))
    h = TableGroup([[0, 1], [1, 0]])
    flip = n.inverses().copy()
    g = n.generator_indices[0]
    if swap:
        g2 = n.mul(g, g)
        flip[g], flip[g2] = flip[g2], flip[g]
    return PairGroup(n, h, action=lambda hpart, x: x if hpart == 0 else int(flip[x]))


def test_pair_group_checks_the_whole_action():
    assert _inversion_pair(swap=False).order() == 60060
    with pytest.raises(ValueError, match="action"):
        _inversion_pair(swap=True)


def _on_h(image):
    """Action of C_2 = {0, 1} whose involution maps x to image(x)."""
    return lambda hpart, x: image(x) if hpart else x


@pytest.mark.parametrize("act, error", [
    (_on_h(lambda x: -x % 7), None),
    (_on_h(lambda x: {1: 2, 2: 1}.get(x, x)), "action is not by homomorphisms"),
    (_on_h(lambda x: 2 * x % 7), "action is not a left H-action"),
    (lambda hpart, x: 0, "action is not a left H-action"),
    (_on_h(lambda x: (x + 1) % 7), "action does not fix the identity"),
    (_on_h(lambda x: x + 7 * (x == 3)), "action does not map N into itself"),
], ids=["inversion", "transposition", "order_three", "collapse", "translation", "outside"])
def test_pair_group_action_checks(act, error):
    n, h = densify(cyclic(7)), densify(cyclic(2))
    if error is None:
        assert PairGroup(n, h, action=act).order() == 14
    else:
        with pytest.raises(ValueError, match=error):
            PairGroup(n, h, action=act)


def test_pair_group_cap():
    big = densify(cyclic(400))
    with pytest.raises(CapExceeded):
        PairGroup(big, big)


def test_densify_matches_mul():
    g = as_indexed(alternating(4))
    t = densify(g)
    assert t.order() == 12
    for i in range(0, 12, 3):
        for j in range(0, 12, 4):
            assert t.mul(i, j) == g.mul(i, j)


def test_sl25_table_group():
    g = sl25_group()
    assert g.order() == 120
    orders = sorted({g.order_of(i) for i in range(g.n)})
    assert orders == [1, 2, 3, 4, 5, 6, 10]
    # Unique element of order 2: the center -I.
    assert sum(1 for i in range(g.n) if g.order_of(i) == 2) == 1


def test_cyclic_above_the_degree_cap_allocates_no_table():
    tracemalloc.start()
    try:
        g = make_group("cyclic(20000)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(g, CyclicGroup) and g.order() == 20000
    assert g.generator_indices == (1,) and g.identity_index == 0
    assert peak < 5_000_000
    with pytest.raises(CapExceeded, match="order 100001 exceeds cayley_cap 100000"):
        make_group("cyclic(100001)")


# -- packed row keys against the byte-key lookup they replaced --

def _byte_keys(rows):
    """The rows' bytes as one void key each: lexicographic row order for
    non-negative, big-endian images."""
    rows = np.ascontiguousarray(rows)
    return rows.view((np.void, rows.shape[-1] * rows.itemsize))[..., 0]


def _byte_lookup(G, rows):
    """Indexes of the full image rows `rows` by a `searchsorted` on bytes."""
    return _byte_keys(G.rows).searchsorted(_byte_keys(rows))


def _check_lookups_match_byte_keys(G, group, rng, pairs=200):
    rows = G.rows
    xs, ys = rng.integers(0, G.n, pairs), rng.integers(0, G.n, pairs)
    full = np.take_along_axis(rows[ys], rows[xs], axis=1)
    expected = _byte_lookup(G, full)
    assert (rows[expected] == full).all()
    assert G.products(xs, ys).tolist() == expected.tolist()
    assert [G.mul(int(x), int(y)) for x, y in zip(xs[:20], ys[:20])] == expected[:20].tolist()
    assert G.products(xs, int(ys[0])).tolist() == _byte_lookup(G, rows[ys[0]][rows[xs]]).tolist()
    assert G.index_of_rows(full).tolist() == expected.tolist()
    inverse_rows = np.argsort(rows, axis=1).astype(rows.dtype)
    assert np.array_equal(invert_rows(rows), inverse_rows)
    assert G.inverses().tolist() == _byte_lookup(G, inverse_rows).tolist()
    gens = np.array([g.images for g in group.generators], dtype=rows.dtype).reshape(-1, G.degree)
    assert list(G.generator_indices) == _byte_lookup(G, gens).tolist()


# images past 127 are big-endian int16
DIHEDRAL_130 = "dihedral(130)"
# 20 images of 5 bits and 130 of 8 bits pass 64: the byte-key fallback
FALLBACK = ("wreath(cyclic(2),cyclic(10))", DIHEDRAL_130)
# 16 images of 4 bits fill all 64 bits
PACKED_GROUPS = (sorted(PERM_GROUPS) + list(WORKLOAD_GROUPS)
                 + ["wreath(cyclic(2),cyclic(8))"] + list(FALLBACK))


def _perm_group(name):
    if name == DIHEDRAL_130:
        return dihedral(130, degree_cap=130)
    return PERM_GROUPS[name]() if name in PERM_GROUPS else make_group(name)


@pytest.mark.parametrize("name", PACKED_GROUPS)
def test_packed_lookups_match_byte_keys(name):
    group = _perm_group(name)
    G = as_indexed(group)
    assert (key_weights(G.degree) is None) == (name in FALLBACK)
    _check_lookups_match_byte_keys(G, group, np.random.default_rng(14))


@pytest.mark.parametrize("name", PACKED_GROUPS)
def test_element_rows_are_the_rows_sorted_by_bytes(name):
    rows = _perm_group(name).element_rows()
    shuffled = rows[np.random.default_rng(3).permutation(len(rows))]
    assert np.array_equal(shuffled[np.argsort(_byte_keys(shuffled), kind="stable")], rows)


def test_non_element_sharing_a_prefix_is_not_found():
    # its key falls right beside the element whose first nine images it shares
    G = as_indexed(direct_product([alternating(5), alternating(6)]))
    row = G.rows[[17]].copy()
    row[0, [9, 10]] = row[0, [10, 9]]
    assert (row[0, :9] == G.rows[17, :9]).all()
    assert not (G.rows == row).all(axis=1).any()
    with pytest.raises(KeyError):
        G.index_of_rows(row)
    with pytest.raises(KeyError):
        G.index_of(Permutation(row[0].tolist()))


def _involutions(degree):
    """Products of disjoint transpositions (2i 2i+1): their groups stay
    small at any degree, so rows can outgrow 64 bits."""
    def swap(moved):
        return Permutation([2 * i + 1 - (p & 1) if i in moved else p
                            for i in range(degree // 2) for p in (2 * i, 2 * i + 1)])
    return st.sets(st.integers(0, degree // 2 - 1)).map(swap)


def _closed_elements(group):
    """Every element, by closing the identity under right products."""
    seen = {Permutation.identity(group.degree)}
    frontier = list(seen)
    while frontier:
        frontier = {x * g for x in frontier for g in group.generators} - seen
        seen |= frontier
    return seen


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_lookups_match_byte_keys_on_small_generator_sets(data):
    if data.draw(st.booleans(), label="involutions"):
        degree = 2 * data.draw(st.integers(1, 24), label="half degree")
        gens = data.draw(st.lists(_involutions(degree), min_size=1, max_size=4))
    else:
        degree = data.draw(st.integers(1, 7), label="degree")
        gens = data.draw(st.lists(st.permutations(range(degree)).map(Permutation), max_size=3))
    group = PermGroup(degree, gens)
    G = as_indexed(group)
    assert [tuple(r) for r in G.rows.tolist()] == sorted(p.images for p in _closed_elements(group))
    _check_lookups_match_byte_keys(G, group, np.random.default_rng(degree), pairs=50)
