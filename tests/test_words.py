"""Word parsing, reduction, exponent analysis, commutator splitting, evaluation."""

import random

import pytest

from anaburnside.engine import alternating, as_indexed, is_law
from anaburnside.errors import WordSyntaxError
from anaburnside.words import (
    Word,
    evaluate,
    exponent_profile,
    in_derived_subgroup,
    neumann_exponent,
    parse_word,
    split_disjoint_commutator,
    support,
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
    assert exponent_profile(parse_word("x^30")).totals == (30,)
    assert exponent_profile(parse_word("[x^5,y]")).totals == (0, 0)
    assert exponent_profile(parse_word("x^2 y^-3")).totals == (2, -3)


def test_neumann_exponent():
    assert neumann_exponent(parse_word("x^30 y^-30")) == 30
    assert neumann_exponent(parse_word("[x,y]")) == 0
    assert neumann_exponent(parse_word("x^2 [x,y]")) == 2
    assert neumann_exponent(parse_word("x^6 y^15")) == 3
    with pytest.raises(ValueError):
        neumann_exponent(parse_word("x x^-1"))


def test_in_derived_subgroup():
    assert in_derived_subgroup(parse_word("[x,y]"))
    assert not in_derived_subgroup(parse_word("x^30"))
    assert in_derived_subgroup(parse_word("[x^5,y] [y,x^5]"))
    assert parse_word("[x^5,y] [y,x^5]").is_empty()
    for text in ["x^30", "[x,y]", "x^2 [x,y]", "[x^5,y] [x,y]"]:
        w = parse_word(text)
        assert in_derived_subgroup(w) == (neumann_exponent(w) == 0)


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


def test_support():
    assert support(parse_word("[x^5,y] z")) == (1, 2, 3)
    assert support(parse_word("x y x^-1 y^-1 y x y^-1 x^-1 y")) == (2,)


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
