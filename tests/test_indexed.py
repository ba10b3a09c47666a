"""Indexed group substrates: tables, permutation indexes, views, quotients, pairs."""

import pytest

from anaburnside.engine import (
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
    symmetric,
)
from anaburnside.engine.structure import subgroup_closure
from anaburnside.errors import CapExceeded

from groupfiles import sl25_group


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
    assert q.coset_of(gi.identity_index) == q.identity_index
    assert len(q.preimage([q.identity_index])) == 4


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
