"""Permutation arithmetic and stabilizer-chain order, membership, structure."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anaburnside.engine import (
    PermGroup,
    Permutation,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    make_group,
    psl2_group,
    symmetric,
    wreath,
)
from anaburnside.errors import CapExceeded

import scalar_oracle as oracle
from chain_oracle import CHAIN_GROUPS


def test_permutation_basics():
    p = Permutation.from_cycles(4, [(0, 1, 2)])
    q = Permutation.from_cycles(4, [(2, 3)])
    assert (p * q).images == (1, 3, 0, 2)
    assert (p * q)(0) == 1
    assert (p * q)(2) == 0
    assert p.inverse() * p == Permutation.identity(4)
    assert p.order() == 3
    assert q.order() == 2
    assert (p * q).order() == 4


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


@st.composite
def _perm_pairs(draw):
    degree = draw(st.integers(1, 12))
    perm = st.permutations(range(degree))
    return Permutation(draw(perm)), Permutation(draw(perm))


@settings(max_examples=100, deadline=None)
@given(_perm_pairs())
def test_unchecked_products_match_validated_ones(pair):
    a, b = pair
    product = Permutation([b.images[p] for p in a.images])
    inverse = Permutation(sorted(range(a.degree), key=a.images.__getitem__))
    for got, want in ((a * b, product), (a.inverse(), inverse),
                      (Permutation.identity(a.degree), Permutation(range(a.degree)))):
        assert type(got.images) is tuple
        assert got.images == want.images
        assert got == want and hash(got) == hash(want)


def test_product_of_different_degrees_raises():
    a, b = Permutation([1, 0, 2]), Permutation([1, 0])
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        b * a


def test_composition_is_left_to_right():
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1


def test_known_orders():
    assert symmetric(5).order() == 120
    assert alternating(5).order() == 60
    assert alternating(6).order() == 360
    assert alternating(9).order() == 181440
    assert cyclic(12).order() == 12
    assert dihedral(7).order() == 14
    assert psl2_group(7).order() == 168
    assert psl2_group(4).order() == 60
    assert psl2_group(8).order() == 504
    assert psl2_group(9).order() == 360
    assert psl2_group(11).order() == 660


def test_chain_order_matches_enumeration():
    for g in (symmetric(4), alternating(5), dihedral(6), psl2_group(5),
              direct_product([cyclic(3), symmetric(3)])):
        els = g.elements(cap=10_000)
        assert len(els) == g.order()
        assert len(set(els)) == g.order()


def test_membership():
    a5 = alternating(5)
    s5 = symmetric(5)
    odd = Permutation.from_cycles(5, [(0, 1)])
    assert not a5.contains(odd)
    assert s5.contains(odd)
    for g in a5.elements():
        assert s5.contains(g)
    assert a5.is_subgroup_of(s5)
    assert a5.is_normal_in(s5)


def test_random_element_lands_inside():
    g = psl2_group(7)
    rng = random.Random(11)
    for _ in range(50):
        assert g.contains(g.random_element(rng))


def test_orbits_and_transitivity():
    g = direct_product([cyclic(3), cyclic(4)])
    assert sorted(g.orbits()) == [[0, 1, 2], [3, 4, 5, 6]]
    assert not g.is_transitive()
    assert alternating(5).is_transitive()


def test_block_systems():
    w = wreath(cyclic(2), cyclic(3))
    systems = w.nontrivial_block_systems()
    assert any(sorted(b) == [[0, 1], [2, 3], [4, 5]] for b in systems)
    blocks = [[0, 1], [2, 3], [4, 5]]
    action, point_map = w.block_action(blocks)
    assert action.order() == 3
    assert point_map[2] == 1
    assert w.block_kernel(blocks).order() == 8


def test_block_groups_keep_a_larger_degree_cap():
    # 65 blocks of a degree-130 group built under a degree cap above the default
    g = cyclic(130, degree_cap=200)
    blocks = [[i, i + 65] for i in range(65)]
    assert g.block_action(blocks)[0].order() == 65
    assert g.block_kernel(blocks).order() == 2


def test_derived_series_and_solvability():
    s4 = symmetric(4)
    series = s4.derived_series()
    assert [g.order() for g in series] == [24, 12, 4, 1]
    assert series[-1].order() == 1
    a5 = alternating(5)
    assert [g.order() for g in a5.derived_series()] == [60]
    assert a5.derived_subgroup().order() == a5.order()
    assert s4.derived_subgroup().order() < s4.order()


def test_normal_closure():
    s4 = symmetric(4)
    double = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    v4 = s4.normal_closure([double])
    assert v4.order() == 4
    three_cycle = Permutation.from_cycles(4, [(0, 1, 2)])
    assert s4.normal_closure([three_cycle]).order() == 12


def _commutators(group):
    gens = group.generators
    return [a.inverse() * b.inverse() * a * b for i, a in enumerate(gens) for b in gens[i + 1:]]


_NAMED_CLOSURES = ["s4_double", "s4_three_cycle", "a5_wr_c2", "a5_wr_a5"]


@pytest.mark.parametrize("name", _NAMED_CLOSURES + CHAIN_GROUPS)
def test_normal_closure_matches_rebuilt_closure(name):
    """The named cases close fixed seeds (the generators' commutators by
    default); a chain group closes 0, 1 and 2 random elements. Each closure
    is the oracle's group, with at most log2 of its order as generators."""
    if name in _NAMED_CLOSURES:
        s4 = symmetric(4)
        group, seeds = {
            "s4_double": (s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)])]),
            "s4_three_cycle": (s4, [Permutation.from_cycles(4, [(0, 1, 2)])]),
            "a5_wr_c2": (wreath(alternating(5), cyclic(2)), None),
            "a5_wr_a5": (wreath(alternating(5), alternating(5)), None),
        }[name]
        seed_sets = [seeds or _commutators(group)]
    else:
        group, rng = make_group(name), random.Random(name)
        seed_sets = [[group.random_element(rng) for _ in range(k)] for k in range(3)]
    for seeds in seed_sets:
        got = group.normal_closure(seeds)
        want = oracle.perm_normal_closure(group, seeds)
        assert got.order() == want.order()
        assert got.is_subgroup_of(want) and want.is_subgroup_of(got)
        assert 2 ** len(got.generators) <= got.order()


def test_normal_closure_builds_one_group(monkeypatch):
    group = wreath(alternating(5), alternating(5))
    seeds = _commutators(group)
    built = []
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    closure = group.normal_closure(seeds)
    assert built == [closure]
    assert closure.order() == group.order()  # the wreath product is perfect


@pytest.mark.parametrize("group", [
    PermGroup(3, []),
    symmetric(4),
    alternating(5),
    dihedral(6),
    psl2_group(7),
    direct_product([cyclic(3), symmetric(3)]),
    wreath(cyclic(2), cyclic(3)),
    PermGroup(130, [Permutation([(i + 1) % 130 for i in range(130)])], degree_cap=130),
], ids=["trivial", "s4", "a5", "d6", "psl2_7", "c3xs3", "c2wrc3", "cyclic130"])
def test_elements_match_breadth_first_enumeration(group):
    got = group.elements()
    want = oracle.perm_elements(group)
    assert len(got) == len(want) == group.order()
    assert set(got) == set(want)
    assert got[0] == Permutation.identity(group.degree)
    assert [p.images for p in got] == sorted(p.images for p in got)


def test_pointwise_stabilizer():
    g = symmetric(5)
    stab = PermGroup(5, g.pointwise_stabilizer_gens([0]))
    assert stab.order() == 24
    stab2 = PermGroup(5, g.pointwise_stabilizer_gens([0, 1]))
    assert stab2.order() == 6


def test_degree_cap():
    with pytest.raises(CapExceeded):
        PermGroup(65, [Permutation(range(65))])
    with pytest.raises(CapExceeded):
        symmetric(65)
    with pytest.raises(CapExceeded):
        wreath(alternating(5), wreath(cyclic(2), cyclic(7)))


def test_builders_reach_degree_cap():
    assert alternating(17).order() == math.factorial(17) // 2
    assert psl2_group(37).order() == 25308
    with pytest.raises(ValueError, match="no modulus table"):
        psl2_group(49)
    for m in (0, -5):
        with pytest.raises(ValueError):
            alternating(m)
        with pytest.raises(ValueError):
            symmetric(m)


@pytest.mark.parametrize("build, arg", [(alternating, 65), (symmetric, 65), (psl2_group, 64),
                                        (psl2_group, 1_000_003)])
def test_builders_refuse_past_degree_cap_before_building(build, arg):
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="exceeds degree_cap 64"):
        build(arg)
    assert time.perf_counter() - start < 1.0


def test_wreath_order():
    w = wreath(alternating(5), cyclic(2))
    assert w.order() == 60 * 60 * 2
    assert w.is_transitive()


def test_elements_cap():
    with pytest.raises(CapExceeded):
        symmetric(8).elements(cap=1000)
