"""Law checking, exponents, shortest laws, generating tuples, automorphisms."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anaburnside.engine import (
    QuotientGroup,
    alternating,
    automorphism_count,
    count_generating_tuples,
    cyclic,
    densify,
    dihedral,
    group_exponent,
    is_law,
    is_simple,
    max_d_generated_power,
    psl2_group,
    shortest_law_search,
    symmetric,
)
from anaburnside.errors import CapExceeded
from anaburnside.words import Word, evaluate, parse_word, to_string

from groupfiles import sl25_group


def test_group_exponent_oracles():
    # Exponents computed by enumerating element orders directly.
    assert group_exponent(alternating(5)) == 30
    assert group_exponent(alternating(6)) == 60
    assert group_exponent(psl2_group(7)) == 84
    assert group_exponent(symmetric(4)) == 12
    assert group_exponent(cyclic(12)) == 12
    assert group_exponent(dihedral(7)) == 14
    assert group_exponent(sl25_group()) == 60


def test_is_law_exponent_words():
    a5 = alternating(5)
    assert is_law(parse_word("x^30"), a5)
    v = is_law(parse_word("x^15"), a5)
    assert not bool(v)
    assert v.witness is not None
    assert v.mode == "exhaustive"


def test_is_law_commutator_words():
    assert is_law(parse_word("[x,y]"), cyclic(12))
    assert not is_law(parse_word("[x,y]"), symmetric(3))
    # Metabelian law holds in S_3 (derived subgroup is abelian).
    assert is_law(parse_word("[[x,y],[z,w]]"), symmetric(3))
    assert not is_law(parse_word("[[x,y],[z,w]]"), symmetric(4))


def test_is_law_witness_is_faithful():
    w = parse_word("[x,y]")
    v = is_law(w, symmetric(3))
    value = evaluate(w, list(v.witness), symmetric(3))
    assert not value.is_identity()


def test_is_law_table_group():
    g = sl25_group()
    assert is_law(parse_word("x^60"), g)
    assert not is_law(parse_word("x^30"), g)


def test_is_law_sampled_mode():
    a6 = alternating(6)
    v = is_law(parse_word("x^60"), a6, mode="sampled", samples=64, seed=7)
    assert v.holds
    assert v.mode == "sampled"
    assert v.seed == 7
    v = is_law(parse_word("[x,y]"), a6, mode="sampled", samples=64, seed=7)
    assert not v.holds
    assert v.witness is not None


def test_is_law_checked_counts():
    v = is_law(parse_word("x^30"), alternating(5))
    assert v.checked == 60
    v = is_law(parse_word("[x,y]"), cyclic(6))
    assert v.checked == 36


def test_is_law_exhaust_cap():
    with pytest.raises(CapExceeded):
        is_law(parse_word("[[x,y],[z,w]]"), alternating(5), exhaust_cap=10**6)


def test_shortest_law_single_variable():
    r = shortest_law_search(cyclic(2), max_len=4, num_vars=1)
    assert (to_string(r.found), r.length) == ("x^2", 2)
    r = shortest_law_search(cyclic(6), max_len=8, num_vars=1)
    assert (to_string(r.found), r.length) == ("x^6", 6)


def test_shortest_law_abelian_two_variables():
    # The commutator, length 4, is the shortest two-variable law of C_6.
    r = shortest_law_search(cyclic(6), max_len=8, num_vars=2)
    assert r.length == 4
    assert is_law(r.found, cyclic(6))
    assert r.found.rank == 2


def test_shortest_law_alt5_single_variable():
    r = shortest_law_search(alternating(5), max_len=30, num_vars=1)
    assert r.length == 30
    assert to_string(r.found) == "x^30"


def test_shortest_law_alt5_two_variables_none_short():
    r = shortest_law_search(alternating(5), max_len=8, num_vars=2)
    assert r.found is None
    assert r.certificate == "none_up_to(8)"
    assert r.words_checked > 0


def test_shortest_law_rejects_many_vars():
    with pytest.raises(CapExceeded):
        shortest_law_search(cyclic(2), max_len=4, num_vars=3)


def test_count_generating_tuples():
    assert count_generating_tuples(alternating(5), 1) == 0
    assert count_generating_tuples(alternating(5), 2) == 2280
    assert count_generating_tuples(cyclic(6), 1) == 2
    assert count_generating_tuples(symmetric(3), 2) == 18


def test_automorphism_counts():
    assert automorphism_count(cyclic(2)) == 1
    assert automorphism_count(cyclic(6)) == 2
    assert automorphism_count(cyclic(12)) == 4
    assert automorphism_count(symmetric(3)) == 6
    assert automorphism_count(alternating(5)) == 120
    assert automorphism_count(alternating(4)) == 24


def test_is_simple():
    assert is_simple(alternating(5))
    assert is_simple(psl2_group(7))
    assert not is_simple(symmetric(4))
    assert not is_simple(alternating(4))
    assert not is_simple(sl25_group())


def test_max_d_generated_power():
    # 2280 generating pairs / 120 automorphisms = 19 independent images.
    assert max_d_generated_power(alternating(5), 2) == 19
    assert max_d_generated_power(alternating(5), 1) == 0


@functools.lru_cache(maxsize=None)
def _a5_substrates():
    """Alt(5) three ways: permutations, their Cayley table (same indexes), and
    SL(2,5) modulo its centre, a quotient of a table with indexes of its own."""
    a5 = alternating(5)
    sl25 = sl25_group()
    psl25 = QuotientGroup(sl25, [i for i in range(sl25.n) if sl25.order_of(i) <= 2])
    return a5, densify(a5), psl25


@st.composite
def _short_words(draw):
    rank = draw(st.integers(1, 2))
    letters = draw(st.lists(st.tuples(st.integers(1, rank), st.sampled_from([1, -1])),
                            min_size=1, max_size=8))
    return Word.make(tuple(letters), rank=rank)


@settings(max_examples=60, deadline=None)
@given(_short_words())
def test_is_law_agrees_across_substrates(w):
    groups = _a5_substrates()
    verdicts = [is_law(w, G) for G in groups]
    assert len({v.holds for v in verdicts}) == 1
    assert verdicts[0].checked == verdicts[1].checked
    for G, v in zip(groups, verdicts):
        if not v.holds:
            assert evaluate(w, v.witness, G) != G.identity()
