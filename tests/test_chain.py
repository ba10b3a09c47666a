"""Stabilizer chains that sift each Schreier generator once, and derived
subgroups that keep only the elements that grew them.

The chain oracle is `chain_oracle.RestartChain`, a level rescanned from its
start after every insertion. Chains must agree with it level for level
(base points, strong generators, transversals, and so every
`random_element` draw), built with no more sifts. Derived terms must be the
groups `scalar_oracle.perm_normal_closure` builds, each with at most log2
of its order as generators.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anaburnside.engine import PermGroup, Permutation, make_group
from anaburnside.engine import perm as perm_module

import scalar_oracle as oracle
from chain_oracle import CHAIN_GROUPS, RestartChain, chain_data, counting_sifts, rebuilt

# sifts to build the chain, and the oracle's
PINNED_SIFTS = {
    "wreath(alternating(5),alternating(5))": (109, 1543),
    "wreath(symmetric(4),symmetric(4))": (66, 662),
}


def _built(group, cls):
    twin = rebuilt(group, cls)
    with counting_sifts() as sifts:
        data = chain_data(twin)
    return data, sifts[0]


@pytest.mark.parametrize("desc", CHAIN_GROUPS)
def test_chain_matches_restart_oracle(desc):
    group = make_group(desc)
    got, sifts = _built(group, PermGroup)
    want, oracle_sifts = _built(group, RestartChain)
    assert got == want
    assert sifts <= oracle_sifts
    if desc in PINNED_SIFTS:
        assert (sifts, oracle_sifts) == PINNED_SIFTS[desc]


@st.composite
def _generator_sets(draw):
    degree = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=4))
    hint = draw(st.lists(st.sampled_from(range(degree)), unique=True, max_size=3))
    group = PermGroup(degree, [Permutation(g) for g in gens], degree_cap=degree)
    group.set_base_hint(hint)
    return group


@settings(max_examples=150, deadline=None)
@given(_generator_sets())
def test_random_chains_match_restart_oracle(group):
    got, sifts = _built(group, PermGroup)
    want, oracle_sifts = _built(group, RestartChain)
    assert got == want
    assert sifts <= oracle_sifts
    rng, oracle_rng = random.Random(5), random.Random(5)
    twin = rebuilt(group)
    assert [group.random_element(rng) for _ in range(4)] == \
        [twin.random_element(oracle_rng) for _ in range(4)]


def _kernel_run(desc, size, degree_cap, cls):
    """Block kernel of the group on its blocks of `size`, with `cls` for
    every group it builds: (augmented group's chain, kernel order, sifts)."""
    group = make_group(desc, degree_cap)
    (blocks,) = [s for s in group.nontrivial_block_systems() if len(s[0]) == size]
    group.order()
    hinted = []
    hint = PermGroup.set_base_hint

    def recording_hint(self, points):
        hinted.append(self)
        hint(self, points)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(perm_module, "PermGroup", cls)
        m.setattr(PermGroup, "set_base_hint", recording_hint)
        with counting_sifts() as sifts:
            kernel = group.block_kernel(blocks)
    (aug,) = hinted
    return chain_data(aug), kernel.order(), sifts[0]


@pytest.mark.parametrize("desc, size, degree_cap, sifts", [
    ("wreath(cyclic(2),cyclic(3))", 2, 64, 29),
    ("wreath(alternating(5),alternating(5))", 5, 64, 290),
    ("wreath(cyclic(2),cyclic(33))", 2, 200, 2249),
])
def test_block_kernel_chain_matches_restart_oracle(desc, size, degree_cap, sifts):
    chain, order, count = _kernel_run(desc, size, degree_cap, PermGroup)
    oracle_chain, oracle_order, oracle_count = _kernel_run(desc, size, degree_cap, RestartChain)
    assert chain == oracle_chain
    assert order == oracle_order
    assert count == sifts <= oracle_count


def _same_group(a, b):
    return a.order() == b.order() and a.is_subgroup_of(b) and b.is_subgroup_of(a)


def _commutators(group):
    gens = group.generators
    return [a.inverse() * b.inverse() * a * b for i, a in enumerate(gens) for b in gens[i + 1:]]


@pytest.mark.parametrize("desc", CHAIN_GROUPS)
def test_derived_terms_match_oracle_closure(desc):
    series = make_group(desc).derived_series()
    for term, nxt in zip(series, series[1:]):
        assert _same_group(nxt, oracle.perm_normal_closure(term, _commutators(term)))
    assert all(2 ** len(term.generators) <= term.order() for term in series[1:])


def test_s4_wreath_s4_derived_series():
    series = make_group("wreath(symmetric(4),symmetric(4))").derived_series()
    assert [t.order() for t in series] == [7962624, 1990656, 663552, 41472, 20736, 256, 1]
    assert [len(t.generators) for t in series] == [4, 4, 13, 8, 8, 8, 0]
