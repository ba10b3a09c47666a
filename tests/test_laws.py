"""Law checking, exponents, shortest laws, generating tuples, automorphisms."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
from anaburnside.engine import (
    CyclicGroup,
    QuotientGroup,
    SubgroupView,
    alternating,
    as_indexed,
    automorphism_count,
    count_generating_tuples,
    cyclic,
    densify,
    dihedral,
    group_exponent,
    is_law,
    is_simple,
    make_group,
    max_d_generated_power,
    psl2_group,
    shortest_law_search,
    symmetric,
)
from anaburnside.engine import laws
from anaburnside.engine.indexed import DENSE_CAP, IndexedGroup
from anaburnside.errors import CapExceeded
from anaburnside.words import Word, evaluate, parse_word, to_string

from groupfiles import sl25_group, substrate


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


SAMPLED_GROUPS = {
    "perm_alt6": lambda: alternating(6),
    "table_alt6": lambda: densify(alternating(6)),
    "cyclic_20000": lambda: CyclicGroup(20000),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_GROUPS))
def test_sampled_mode_matches_two_loop_sampler(name):
    G = SAMPLED_GROUPS[name]()
    verdicts = set()
    for text in ("x^60", "x^5", "x^20000", "[x,y]", "[x,y]^30", "x^2 y^3 x^-2 y^-3"):
        w = parse_word(text)
        for seed in (1, 7, 99, 20260816):
            got = is_law(w, G, mode="sampled", samples=64, seed=seed)
            want = scalar_oracle.is_law_sampled(w, G, 64, seed)
            assert (got.holds, got.witness, got.checked, got.seed) == \
                (want.holds, want.witness, want.checked, want.seed), (text, seed)
            verdicts.add(got.holds)
    assert verdicts == {True, False}


def test_sampled_mode_rejects_unknown_handles():
    with pytest.raises(TypeError):
        is_law(parse_word("x^2"), object(), mode="sampled")


def test_is_law_checked_counts():
    v = is_law(parse_word("x^30"), alternating(5))
    assert v.checked == 60
    v = is_law(parse_word("[x,y]"), cyclic(6))
    assert v.checked == 36


def test_spans_double_up_to_the_chunk():
    spans = list(laws._spans(10 ** 6))
    assert spans[0] == (0, 1 << 12)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert spans[-1][1] == 10 ** 6
    sizes = [stop - start for start, stop in spans]
    assert sizes[:7] == [1 << k for k in range(12, 19)]
    assert max(sizes) == laws._CHUNK
    assert list(laws._spans(5)) == [(0, 5)]


# (group, word, first failing assignment or None): failures in the first
# span, past its boundary, in the last partial span, with negative
# exponents, a rank-3 law, and a law whose variables share an exponent
EXHAUSTIVE_CASES = [
    ("symmetric(4)", "[x,y]", 27),
    ("direct_product(alternating(5),symmetric(4))", "[x,y]", 1443),
    ("wreath(alternating(5),cyclic(2))", "x^30", 3604),
    ("wreath(alternating(5),cyclic(2))", "[x,y]", 7204),
    ("wreath(cyclic(7),cyclic(2))", "[x^7,y]", 4804),
    ("wreath(cyclic(5),cyclic(2))", "[x^5,y][x^5,z]", 62502),
    ("alternating(5)", "x^-3 y^-2 x^3 y^2", 182),
    ("symmetric(3)", "[[x,y],[z,x]]", None),
    ("alternating(5)", "x^30 y^30", None),
]


def _indexed_twin(G):
    """A substrate of the other exhaustive path with the same element
    indexes: the Cayley table, or past the dense cap a view of every element."""
    Gi = as_indexed(G)
    if Gi.n <= DENSE_CAP:
        return densify(G)
    return SubgroupView(Gi, range(Gi.n), Gi.generator_indices)


@functools.lru_cache(maxsize=None)
def _exhaustive_case(desc, text):
    G = make_group(desc)
    w = parse_word(text)
    return G, w, scalar_oracle.is_law_exhaustive(w, G)


@pytest.mark.parametrize("desc, text, fails_at", EXHAUSTIVE_CASES)
def test_is_law_matches_scalar_loop_on_both_paths(desc, text, fails_at):
    G, w, want = _exhaustive_case(desc, text)
    assert want.checked == (fails_at or G.order() ** w.rank)
    assert want.holds == (fails_at is None)
    got = is_law(w, G)
    assert (got.holds, got.witness, got.checked) == (want.holds, want.witness, want.checked)
    twin = is_law(w, _indexed_twin(G))
    index = None if want.holds else tuple(as_indexed(G).index_of(p) for p in want.witness)
    assert (twin.holds, twin.witness, twin.checked) == (want.holds, index, want.checked)


def test_last_partial_span_is_covered():
    G, w, want = _exhaustive_case("wreath(cyclic(7),cyclic(2))", "[x^7,y]")
    *_, (a, b), (start, stop) = laws._spans(G.order() ** w.rank)
    assert stop - start < 2 * (b - a)
    assert start < want.checked <= stop


@pytest.mark.parametrize("desc, text, fails_at", EXHAUSTIVE_CASES)
def test_refuted_law_builds_rows_near_its_failure(desc, text, fails_at, monkeypatch):
    G, w, want = _exhaustive_case(desc, text)
    built = []
    columns = laws._assignment_columns

    def counted(start, stop, n, rank):
        built.append(stop - start)
        return columns(start, stop, n, rank)

    monkeypatch.setattr(laws, "_assignment_columns", counted)
    for substrate in (G, _indexed_twin(G)):
        built.clear()
        v = is_law(w, substrate)
        if v.holds:
            assert sum(built) == v.checked
        else:
            assert sum(built) <= 2 * v.checked + (1 << 12)


@pytest.mark.parametrize("twin", [False, True])
def test_empty_word_holds_on_every_element(twin):
    G = alternating(5)
    v = is_law(parse_word("x x^-1"), _indexed_twin(G) if twin else G)
    assert (v.holds, v.witness, v.checked) == (True, None, 60)


def test_power_tables_are_built_once_per_exponent(monkeypatch):
    G = alternating(5)
    built = []
    power_rows, powers = laws._power_rows, IndexedGroup.powers

    def counted_rows(rows, e):
        built.append(e)
        return power_rows(rows, e)

    def counted_powers(self, e, xs=None):
        built.append(e)
        return powers(self, e, xs)

    monkeypatch.setattr(laws, "_power_rows", counted_rows)
    monkeypatch.setattr(IndexedGroup, "powers", counted_powers)
    for substrate in (G, _indexed_twin(G)):
        built.clear()
        assert is_law(parse_word("[x,y]^60"), substrate)
        assert sorted(built) == [-1, 1]


@pytest.mark.parametrize("text, block, k", [
    ("x^6", ((1, 6),), 1),
    ("x y x^-1", ((1, 1), (2, 1), (1, -1)), 1),
    ("(x y)^2 x", ((1, 1), (2, 1), (1, 1), (2, 1), (1, 1)), 1),
    ("(x y)^6", ((1, 1), (2, 1)), 6),
    ("((x y)^2)^3", ((1, 1), (2, 1)), 6),
    ("(x^2 y)^4", ((1, 2), (2, 1)), 4),
    ("(x y x y^-1)^2", ((1, 1), (2, 1), (1, 1), (2, -1)), 2),
    ("[x,y]^60", ((1, -1), (2, -1), (1, 1), (2, 1)), 60),
])
def test_root_is_the_shortest_block(text, block, k):
    assert laws._root(parse_word(text).syllables) == (block, k)


@functools.lru_cache(maxsize=None)
def _power_substrate(name):
    """S4 as permutations and as its Cayley table, and three indexed
    substrates from groupfiles: a relabelled table, S4/V4 and A4 in S4."""
    if name == "perm_s4":
        return symmetric(4)
    if name == "table_s4":
        return densify(symmetric(4))
    return substrate(name)


POWER_SUBSTRATES = ["perm_s4", "table_s4", "table_s4_relabelled", "quotient_s4_v4",
                    "view_a4_in_s4"]
# on S4, [x,y]^6, (x y)^12 and (x^2 y)^12 hold and the others fail
POWER_LAWS = ["[x,y]^2", "[x,y]^3", "[x,y]^6", "(x y)^3", "(x y)^6", "(x y)^12",
              "(x^2 y)^4", "(x^2 y)^12", "(x y x y^-1)^2"]


def _agrees_with_scalar_loop(w, G):
    got, want = is_law(w, G), scalar_oracle.is_law_exhaustive(w, G)
    assert (got.holds, got.witness, got.checked) == (want.holds, want.witness, want.checked)
    return got.holds


@pytest.mark.parametrize("name", POWER_SUBSTRATES)
def test_powers_of_blocks_match_scalar_loop(name):
    G = _power_substrate(name)
    held = [_agrees_with_scalar_loop(parse_word(text), G) for text in POWER_LAWS]
    if name in ("perm_s4", "table_s4"):
        assert held == [False, False, True, False, False, True, False, True, False]


@st.composite
def _block_powers(draw):
    rank = draw(st.integers(1, 2))
    block = draw(st.lists(st.tuples(st.integers(1, rank), st.sampled_from([1, -1, 2, -2, 3])),
                          min_size=1, max_size=4))
    return Word.make(tuple(block) * draw(st.integers(1, 12)), rank=rank)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POWER_SUBSTRATES), _block_powers())
def test_random_block_powers_match_scalar_loop(name, w):
    _agrees_with_scalar_loop(w, _power_substrate(name))


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_mode_rejects_non_positive_samples(samples):
    with pytest.raises(ValueError, match="samples must be positive"):
        is_law(parse_word("[x,y]"), alternating(5), mode="sampled", samples=samples)


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
    with pytest.raises(ValueError, match="1 or 2 variables"):
        shortest_law_search(cyclic(2), max_len=4, num_vars=3)


def test_count_generating_tuples():
    assert count_generating_tuples(alternating(5), 1) == 0
    assert count_generating_tuples(alternating(5), 2) == 2280
    assert count_generating_tuples(cyclic(6), 1) == 2
    assert count_generating_tuples(symmetric(3), 2) == 18


@pytest.mark.parametrize("desc, d", [
    (desc, d) for desc in ("symmetric(3)", "alternating(4)", "symmetric(4)", "alternating(5)",
                           "psl2(7)", "cyclic(12)", "dihedral(8)") for d in (1, 2)
] + [("symmetric(3)", 3), ("alternating(4)", 3)])
def test_count_generating_tuples_matches_tuple_loop(desc, d):
    G = as_indexed(make_group(desc))
    assert count_generating_tuples(G, d) == scalar_oracle.count_generating_tuples(G, d)


def test_count_generating_tuples_caps():
    with pytest.raises(CapExceeded):
        count_generating_tuples(alternating(5), 2, exhaust_cap=3599)
    assert count_generating_tuples(alternating(5), 2, exhaust_cap=3600) == 2280
    # the work is k(G) * n^d: 7 * 360^2 on A6 is under the cap, 9 * 2520^2 on A7 is not
    assert count_generating_tuples(alternating(6), 2) == 76320
    with pytest.raises(CapExceeded, match="9 classes times 2520"):
        count_generating_tuples(alternating(7), 2)


def test_automorphism_counts():
    assert automorphism_count(cyclic(2)) == 1
    assert automorphism_count(cyclic(6)) == 2
    assert automorphism_count(cyclic(12)) == 4
    assert automorphism_count(symmetric(3)) == 6
    assert automorphism_count(alternating(5)) == 120
    assert automorphism_count(alternating(4)) == 24


@pytest.mark.parametrize("desc", ["symmetric(3)", "alternating(4)", "symmetric(4)",
                                  "alternating(5)", "psl2(7)", "cyclic(12)",
                                  # endomorphisms that keep the generators' orders
                                  # but are not bijections
                                  "direct_product(cyclic(2),cyclic(4))", "dihedral(8)",
                                  "direct_product(cyclic(4),cyclic(4))"])
def test_automorphism_count_matches_scalar_loop(desc):
    G = make_group(desc)
    T = densify(G)
    assert automorphism_count(G) == automorphism_count(T) == scalar_oracle.automorphism_count(T)


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
    # h_2 values from P. Hall, "The Eulerian functions of a group" (1936)
    assert max_d_generated_power(alternating(6), 2) == 53
    assert max_d_generated_power(psl2_group(7), 2) == 57


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
