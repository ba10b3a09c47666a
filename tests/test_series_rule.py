"""One semisimplicity rule for permutation groups, under the configured cap.

`verify_series_lambda` certifies a semisimple factor by one rule: split the
group into its orbit restrictions when their orders multiply to its order,
else take the group itself, and run `is_semisimple` on each part, indexed
under `cayley_cap`. The rule is checked against the two-rule certificate
it replaced (`structure_oracle.certify_semisimple`) wherever that one
gave an answer.
"""

import pytest

import structure_oracle as old
from anaburnside.config import Config
from anaburnside.engine import (
    PermGroup,
    Permutation,
    alternating,
    make_group,
    verify_series_lambda,
)
from anaburnside.engine.structure import _certify_semisimple
from anaburnside.errors import CapExceeded

from groupfiles import PERM_GROUPS, S5_FAMILY, WORKLOAD_GROUPS

SERIES_GROUPS = (
    "wreath(alternating(5),alternating(5))",
    "wreath(alternating(5),cyclic(2))",
    "wreath(alternating(5),symmetric(3))",
    "wreath(alternating(6),cyclic(2))",
)


def _a5_cubed():
    """Alt(5) x Alt(5) in product action on a 5 x 5 grid, beside Alt(5) on
    five more points: semisimple of order 216000, with two orbits."""
    gens = []
    for g in alternating(5).generators:
        rest = list(range(25, 30))
        gens.append(Permutation([5 * g(i) + j for i in range(5) for j in range(5)] + rest))
        gens.append(Permutation([5 * i + g(j) for i in range(5) for j in range(5)] + rest))
        gens.append(Permutation(list(range(25)) + [25 + p for p in g.images]))
    return PermGroup(30, gens)


def _diagonal_a5():
    """Alt(5) acting the same way on two 5-point orbits: order 60, while the
    orbit restrictions multiply to 3600."""
    return PermGroup(10, [Permutation(list(g.images) + [5 + p for p in g.images])
                          for g in alternating(5).generators])


def test_semisimple_factor_that_is_not_simple():
    G = _a5_cubed()
    assert G.order() == 216_000
    rep = verify_series_lambda(G, ["trivial", "full"])
    assert rep.value == 1
    assert [(f.kind, f.order) for f in rep.factors] == [("semisimple", 216_000)]


def test_diagonal_group_is_checked_whole_under_the_cap():
    G = _diagonal_a5()
    rep = verify_series_lambda(G, ["trivial", "full"])
    assert rep.value == 1
    assert [(f.kind, f.order) for f in rep.factors] == [("semisimple", 60)]
    with pytest.raises(CapExceeded, match="order 60 exceeds cayley_cap 50"):
        verify_series_lambda(G, ["trivial", "full"], cayley_cap=50)


def test_fixed_points_are_not_factors():
    """A fixed point restricts to the trivial group, which is not semisimple
    and does not split the group."""
    G = PermGroup(6, [Permutation(list(g.images) + [5]) for g in alternating(5).generators])
    rep = verify_series_lambda(G, ["trivial", "full"])
    assert [(f.kind, f.order) for f in rep.factors] == [("semisimple", 60)]
    rep = verify_series_lambda(make_group("direct_product(alternating(5),symmetric(4))"),
                               ["trivial", "derived:3", "full"])
    assert rep.value == 1
    assert [(f.kind, f.order) for f in rep.factors] == [("semisimple", 60),
                                                        ("solvable", 24)]


@pytest.mark.parametrize("series", [["trivial", "derived:1", "full"],
                                    ["trivial", "block_kernel:5", "derived:1", "full"]])
def test_derived_descriptors(series):
    rep = verify_series_lambda(make_group("wreath(alternating(5),cyclic(2))"), series)
    assert rep.value == 1
    assert [(f.kind, f.order) for f in rep.factors] == [("semisimple", 3600),
                                                        ("solvable", 2)]


def test_derived_descriptor_needs_a_positive_step():
    with pytest.raises(ValueError, match="derived:k needs k >= 1"):
        verify_series_lambda(make_group("wreath(alternating(5),cyclic(2))"),
                             ["trivial", "derived:0", "full"])


def _perm_group(name):
    return PERM_GROUPS[name]() if name in PERM_GROUPS else make_group(name)


def _related_groups(G):
    """G, the later terms of its derived series, and for a transitive G the
    kernel and image of each minimal block system. The derived terms of the
    direct products are semisimple groups with fixed points."""
    out = G.derived_series()
    if G.is_transitive():
        for blocks in G.nontrivial_block_systems():
            out += [G.block_kernel(blocks), G.block_action(blocks)[0]]
    return out


@pytest.mark.parametrize("name", sorted(PERM_GROUPS)
                         + sorted(set(WORKLOAD_GROUPS + SERIES_GROUPS) | set(S5_FAMILY)))
def test_rule_matches_the_two_rule_certificate(name):
    answered = 0
    for H in _related_groups(_perm_group(name)):
        try:
            want, cert = old.certify_semisimple(H)
        except CapExceeded:
            continue
        if cert.startswith("orbit restriction orders do not multiply"):
            continue  # refused, not refuted
        assert _certify_semisimple(H, Config.cayley_cap)[0] == want, H.order()
        answered += 1
    assert answered
