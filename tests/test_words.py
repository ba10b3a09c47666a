"""Word parsing, reduction, exponent analysis, commutator splitting, evaluation."""

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from anaburnside.engine import alternating, as_indexed, is_law
from anaburnside.errors import WordSyntaxError
from anaburnside.words import (
    Word,
    evaluate,
    exponent_profile,
    neumann_exponent,
    parse_word,
    split_disjoint_commutator,
    to_string,
    word_length,
)


def test_parse_power():
    w = parse_word("x^30")
    assert (w.rank, w.syllables) == (1, ((1, 30),))


def test_parse_free_cancellation():
    w = parse_word("x x^-1 y")
    assert (w.rank, w.syllables) == (2, ((2, 1),))


def test_parse_commutator():
    w = parse_word("[x^5,y]")
    assert w.syllables == ((1, -5), (2, -1), (1, 5), (2, 1))
    assert w.rank == 2


def test_parse_forms():
    assert parse_word("x*y") == parse_word("x y") == parse_word("xy")
    assert parse_word("(x y)^2").syllables == ((1, 1), (2, 1), (1, 1), (2, 1))
    assert parse_word("(x y)^-1").syllables == ((2, -1), (1, -1))
    assert parse_word("(x)^0 y").syllables == ((2, 1),)
    assert parse_word("x^0 y") == parse_word("y", rank_hint=2)
    assert parse_word("x3").rank == 3
    assert parse_word("[x1, x2 x3]").rank == 3
    assert parse_word("[[x,y],z]").syllables == parse_word(
        "y^-1 x^-1 y x z^-1 x^-1 y^-1 x y z"
    ).syllables


def test_parse_rank_hint():
    w = parse_word("x", rank_hint=3)
    assert w.rank == 3
    with pytest.raises(WordSyntaxError):
        parse_word("z", rank_hint=2)
    with pytest.raises(ValueError):
        parse_word("x", rank_hint=0)


def test_parse_errors_carry_position():
    for text, fragment in [
        ("", "unexpected end"),
        ("x^", "exponent"),
        ("x )", "unexpected"),
        ("[x y]", "expected ','"),
        ("x y$", "unexpected character"),
        ("x x1", "mixed named and indexed"),
        ("x0", "at least 1"),
        ("y2", "unexpected"),
    ]:
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text)
        assert "char" in str(err.value)
        assert fragment in str(err.value)


def test_word_invariants():
    with pytest.raises(ValueError):
        Word(2, ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        Word(1, ((2, 1),))
    with pytest.raises(ValueError):
        Word(1, ((1, 0),))
    assert Word.make([(1, 1), (1, 1)]).syllables == ((1, 2),)


def test_word_length():
    assert word_length(parse_word("x^30")) == 30
    assert word_length(parse_word("[x^5,y]")) == 12
    assert word_length(parse_word("x x^-1")) == 0


def test_word_length_invariant_under_renaming():
    w = parse_word("[x^5,y] z")
    renamed = Word(3, tuple((4 - g, e) for g, e in w.syllables))
    assert word_length(renamed) == word_length(w)


def test_exponent_profile():
    assert exponent_profile(parse_word("x^30")) == (30,)
    assert exponent_profile(parse_word("[x^5,y]")) == (0, 0)
    assert exponent_profile(parse_word("x^2 y^-3")) == (2, -3)


def test_neumann_exponent():
    assert neumann_exponent(parse_word("x^30 y^-30")) == 30
    assert neumann_exponent(parse_word("[x,y]")) == 0
    assert neumann_exponent(parse_word("x^2 [x,y]")) == 2
    assert neumann_exponent(parse_word("x^6 y^15")) == 3
    with pytest.raises(ValueError):
        neumann_exponent(parse_word("x x^-1"))


def test_split_disjoint_commutator():
    got = split_disjoint_commutator(parse_word("[x^30, y]"))
    assert got == (parse_word("x^30"), parse_word("x", rank_hint=1))
    got = split_disjoint_commutator(parse_word("[x y, z^2]"))
    assert got is not None
    a, b = got
    assert a == parse_word("x y") and b == parse_word("x^2")
    assert split_disjoint_commutator(parse_word("[x, y x]")) is None
    assert split_disjoint_commutator(parse_word("x^30")) is None
    assert split_disjoint_commutator(parse_word("[x, [y, z]]")) is not None


def test_split_requires_disjoint_supports():
    # [x, x y] freely reduces to the same word as [x, y]; the scan works on
    # the reduced form, so the split it finds is the disjoint one
    assert split_disjoint_commutator(parse_word("[x, x y]")) == (
        parse_word("x"),
        parse_word("x"),
    )
    # genuinely overlapping supports in every factorization
    assert split_disjoint_commutator(parse_word("[x y, y z]")) is None


def _syllables(gens, min_size=1, max_size=4):
    return st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((-3, -2, -1, 1, 2, 3))),
                    min_size=min_size, max_size=max_size)


def _commutator(a, b):
    return Word.make(list(a.inverse().syllables) + list(b.inverse().syllables)
                     + list(a.syllables) + list(b.syllables), rank=4)


@st.composite
def _factor(draw, gens, nested):
    """A random word of at most four syllables on `gens`, or with `nested`
    the commutator of two one-syllable words on them."""
    if nested and draw(st.booleans()):
        u, v = draw(_syllables(gens, max_size=1)), draw(_syllables(gens, max_size=1))
        return _commutator(Word.make(u, rank=4), Word.make(v, rank=4))
    return Word.make(draw(_syllables(gens)), rank=4)


@st.composite
def _split_candidates(draw):
    """Words of at most 16 syllables: a^-1 b^-1 a b with disjoint or
    overlapping supports, nested one level, or random reduced words."""
    kind = draw(st.sampled_from(("disjoint", "overlapping", "nested", "random")))
    if kind == "random":
        return Word.make(draw(_syllables((1, 2, 3, 4), min_size=0, max_size=16)), rank=4)
    gens = draw(st.permutations((1, 2, 3, 4)))
    cut = draw(st.integers(1, 3))
    if kind == "overlapping":
        left, right = gens[:cut + 1], gens[cut - 1:]
    else:
        left, right = gens[:cut], gens[cut:]
    nested = kind == "nested"
    return _commutator(draw(_factor(left, nested)), draw(_factor(right, nested)))


@settings(max_examples=400, deadline=None)
@given(_split_candidates())
def test_split_matches_the_cut_triple_search(w):
    assert len(w.syllables) <= 16
    assert split_disjoint_commutator(w) == oracle.split_disjoint_commutator(w)


def test_split_of_a_long_commutator_is_linear():
    # 320 000 syllables: about 5·10^15 triples of cut points
    w = parse_word("[(x z)^50000, (y w)^30000]", rank_hint=4)
    start = time.perf_counter()
    a, b = split_disjoint_commutator(w)
    assert time.perf_counter() - start < 2
    assert a == parse_word("(x y)^50000") and b == parse_word("(x y)^30000")
    assert (len(a.syllables), len(b.syllables)) == (100_000, 60_000)


class _Sym5:
    """Tiny symmetric-group handle for the evaluation property checks."""

    def identity(self):
        return tuple(range(5))

    def mul(self, a, b):
        return tuple(a[b[i]] for i in range(5))

    def inv(self, a):
        out = [0] * 5
        for i, v in enumerate(a):
            out[v] = i
        return out and tuple(out)

    def contains(self, a):
        return sorted(a) == list(range(5))


def test_evaluate_basics():
    g = _Sym5()
    sigma = (1, 2, 3, 4, 0)
    assert evaluate(parse_word("x^2"), (sigma,), g) == g.mul(sigma, sigma)
    assert evaluate(parse_word("x^-1 x"), (sigma,), g) == g.identity()
    a, b = (1, 0, 2, 3, 4), (0, 2, 1, 3, 4)
    lhs = evaluate(parse_word("[x,y]"), (a, b), g)
    rhs = g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b))
    assert lhs == rhs


def test_evaluate_identity_substitution():
    g = _Sym5()
    e = g.identity()
    for text in ["x^30", "[x,y]", "x^2 [x,y]", "[x y, z^2]"]:
        w = parse_word(text)
        assert evaluate(w, (e,) * w.rank, g) == e


def test_evaluate_errors():
    g = _Sym5()
    with pytest.raises(ValueError):
        evaluate(parse_word("[x,y]"), ((0, 1, 2, 3, 4),), g)
    with pytest.raises(ValueError):
        evaluate(parse_word("x"), ((0, 0, 2, 3, 4),), g)


def test_split_commutator_matches_evaluation():
    g = _Sym5()
    rng = random.Random(11)
    w = parse_word("[x y, z^2]")
    a, b = split_disjoint_commutator(w)
    for _ in range(25):
        perms = []
        for _ in range(3):
            p = list(range(5))
            rng.shuffle(p)
            perms.append(tuple(p))
        whole = evaluate(w, tuple(perms), g)
        u = evaluate(a, tuple(perms[:2]), g)
        v = evaluate(b, (perms[2],), g)
        comm = g.mul(g.mul(g.inv(u), g.inv(v)), g.mul(u, v))
        assert whole == comm


def test_print_parse_roundtrip():
    for text in ["x^30", "[x^5,y]", "x^2 y^-3", "[x y, z^2]", "x1 x2^4 x5^-2"]:
        w = parse_word(text)
        assert parse_word(to_string(w)) == w
    assert to_string(parse_word("x5")) == "x5"
    assert to_string(parse_word("[x^5,y]")) == "x^-5 y^-1 x^5 y"


@st.composite
def _words_up_to_rank_7(draw):
    """Named generators up to rank 4, indexed ones past it."""
    rank = draw(st.integers(1, 7))
    syllables = draw(st.lists(st.tuples(st.integers(1, rank), st.integers(-40, 40)),
                              min_size=1, max_size=12))
    return Word.make(syllables, rank=rank)


@settings(max_examples=200, deadline=None)
@given(_words_up_to_rank_7())
def test_print_parse_roundtrip_property(w):
    assume(not w.is_empty())
    assert parse_word(to_string(w), rank_hint=w.rank) == w


def test_evaluate_huge_exponent_by_squaring():
    # x^1000000007 equals x to that exponent reduced modulo the order of x;
    # by repeated products this would take 10^9 multiplications per element
    big = 1000000007
    w, w_inv = parse_word("x^%d" % big), parse_word("x^-%d" % big)
    a5 = alternating(5)
    for g in a5.elements():
        expected = a5.identity()
        for _ in range(big % g.order()):
            expected = expected * g
        assert evaluate(w, (g,), a5) == expected
        assert evaluate(w_inv, (g,), a5) == expected.inverse()
    Gi = as_indexed(a5)
    for i in range(Gi.n):
        expected = Gi.identity()
        for _ in range(big % Gi.order_of(i)):
            expected = Gi.mul(expected, i)
        assert evaluate(w, (i,), Gi) == expected
    # 10^9 + 7 is prime, so Alt(5) (exponent 30) does not satisfy the word
    assert not is_law(w, a5, mode="sampled", samples=16, seed=1).holds
