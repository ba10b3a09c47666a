"""Triviality decision procedure: verdicts, witnesses, commutator splitting."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anaburnside.analyzer import (
    VERDICT_BURNSIDE,
    VERDICT_FT,
    VERDICT_TRIVIAL_FACTORS,
    VERDICT_UNKNOWN,
    VERDICT_WITNESS,
    analyze,
    analyze_disjoint_commutator,
    classify,
)
from anaburnside.catalog import _alternating_exponent, factorize, witness_pool
from anaburnside.config import Config
from anaburnside.engine import group_exponent, is_law, make_group
from anaburnside.words import parse_word


def test_factor_exponent():
    assert factorize(30) == ((2, 1), (3, 1), (5, 1))
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(8) == ((2, 3),)
    assert factorize(1) == ()


def test_odd_exponents_trivial_by_feit_thompson():
    for n in (3, 5, 7, 9, 15, 105):
        r = classify(parse_word("x^%d" % n), d=2)
        assert r.verdict == VERDICT_FT, n
        assert r.exponent == n


def test_two_prime_exponents_trivial_by_burnside():
    r = classify(parse_word("x^12"), d=2)
    assert r.verdict == VERDICT_BURNSIDE
    assert r.burnside == (2, 3, 1)
    r = classify(parse_word("x^8"), d=2)
    assert r.verdict == VERDICT_BURNSIDE
    assert r.burnside == (3, None, 0)
    r = classify(parse_word("x^24"), d=2)
    assert r.burnside == (3, 3, 1)


def test_witness_verdicts():
    r = classify(parse_word("x^30"), d=2)
    assert r.verdict == VERDICT_WITNESS
    assert [w.name for w in r.witnesses] == ["Alt(5)", "PSL(2,4)", "PSL(2,5)"]
    assert all(w.exponent == 30 for w in r.witnesses)
    assert all(w.assignments_checked > 0 for w in r.witnesses)

    r = classify(parse_word("x^60"), d=2)
    assert r.verdict == VERDICT_WITNESS
    assert "Alt(6)" in [w.name for w in r.witnesses]
    r = classify(parse_word("x^84"), d=2)
    assert "PSL(2,7)" in [w.name for w in r.witnesses]


def test_pool_exponents_match_enumeration():
    for group in witness_pool():
        G = make_group(group.descriptor)
        # Alt(9) is past the default cayley_cap, so the cap is explicit
        assert group.exponent == group_exponent(G, cap=G.order()), group.name


def _partitions(m, largest=None):
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def test_alternating_exponent_matches_even_partition_lcm():
    # Alt(m) holds the cycle types with an even number of even-length
    # cycles, i.e. m minus the number of cycles is even.
    for m in range(1, 17):
        brute = 1
        for parts in _partitions(m):
            if (m - len(parts)) % 2 == 0:
                brute = math.lcm(brute, *parts)
        assert _alternating_exponent(m) == brute, m


def test_witnesses_under_small_cayley_cap():
    # groups above the cap are only ever built, never indexed or enumerated
    r = classify(parse_word("x^30"), d=2, config=Config(cayley_cap=100))
    assert r.verdict == VERDICT_WITNESS
    assert [w.name for w in r.witnesses] == ["Alt(5)", "PSL(2,4)", "PSL(2,5)"]


def test_pool_notes_quote_the_cap_that_excluded_a_candidate():
    r = classify(parse_word("x^60"), d=2, config=Config(exhaust_cap=100))
    assert [w.name for w in r.witnesses] == ["Alt(5)", "PSL(2,4)", "PSL(2,5)"]
    assert r.notes[:2] == (
        "Alt(6) satisfies the law but 360^1 assignments exceed exhaust_cap 100; excluded",
        "PSL(2,9) satisfies the law but 360^1 assignments exceed exhaust_cap 100; excluded")


def test_exponent_with_three_primes_but_no_witness():
    # 2*3*7 = 42 is even with three primes, yet no pool group has exponent
    # dividing 42, so the procedure reports Unknown rather than guessing.
    r = classify(parse_word("x^42"), d=2)
    assert r.verdict == VERDICT_UNKNOWN
    assert r.witnesses == ()


def test_derived_word_is_unknown():
    r = classify(parse_word("[x,y]"), d=2)
    assert r.verdict == VERDICT_UNKNOWN
    assert r.case == "derived"
    assert r.exponent is None


def test_mixed_word_uses_gcd_exponent():
    # x^4 y^6 has signed sums 4 and 6; the quotient obeys x^gcd = x^2.
    r = classify(parse_word("x^4 y^6"), d=2)
    assert r.exponent == 2
    assert r.verdict == VERDICT_BURNSIDE


def test_classify_includes_bound():
    r = classify(parse_word("x^30"), d=2)
    assert r.bound is not None
    assert r.bound.main_bound.height == 63


def test_rank_one_note():
    r = classify(parse_word("x^8"), d=1)
    assert any("rank 1" in n for n in r.notes)


def test_rank_one_is_trivial_whatever_the_exponent():
    for text in ("x^30", "x^7", "x^12", "x^60"):
        r = classify(parse_word(text), d=1)
        assert r.verdict == "TrivialByRank", text
        assert r.witnesses == ()
        assert r.bound is not None and r.bound.params.d == 1


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify(parse_word("x x^-1"), d=2)
    with pytest.raises(ValueError):
        classify(parse_word("x^2"), d=0)


def test_disjoint_commutator_isomorphism():
    r = analyze(parse_word("[x^30,y]"), d=2)
    assert r.case == "disjoint_commutator"
    assert r.verdict == VERDICT_WITNESS
    assert "isomorphic" in r.conclusion
    assert [w.name for w in r.witnesses] == ["Alt(5)", "PSL(2,4)", "PSL(2,5)"]
    assert len(r.sub_reports) == 2


def test_disjoint_commutator_both_trivial():
    r = analyze(parse_word("[x^9,y^4]"), d=2)
    assert r.verdict == VERDICT_TRIVIAL_FACTORS
    assert "both factor varieties are trivial" in r.conclusion
    sub_verdicts = [s.verdict for s in r.sub_reports]
    assert sub_verdicts == [VERDICT_FT, VERDICT_BURNSIDE]


def test_disjoint_commutator_one_trivial_factor_keeps_witnesses():
    # every group satisfying x^30 satisfies [x^30, y^4]
    r = analyze(parse_word("[x^30,y^4]"), d=2)
    assert [s.verdict for s in r.sub_reports] == [VERDICT_WITNESS, VERDICT_BURNSIDE]
    assert r.verdict == VERDICT_WITNESS
    assert [w.name for w in r.witnesses] == ["Alt(5)", "PSL(2,4)", "PSL(2,5)"]
    assert "second factor variety is trivial" in r.conclusion
    r = analyze(parse_word("[x^9,y^42]"), d=2)
    assert [s.verdict for s in r.sub_reports] == [VERDICT_FT, VERDICT_UNKNOWN]
    assert r.verdict == VERDICT_UNKNOWN
    assert r.witnesses == ()


def test_disjoint_commutator_both_factors_keep_witnesses():
    # every group satisfying x^30 (or y^60) satisfies [x^30, y^60]
    r = analyze(parse_word("[x^30,y^60]"), d=2)
    assert [s.verdict for s in r.sub_reports] == [VERDICT_WITNESS, VERDICT_WITNESS]
    assert r.verdict == VERDICT_WITNESS
    assert [w.name for w in r.witnesses] == [
        "Alt(5)", "PSL(2,4)", "PSL(2,5)", "Alt(6)", "PSL(2,9)"]
    assert len({w.descriptor for w in r.witnesses}) == len(r.witnesses)
    assert "each factor's witnesses" in r.conclusion
    r = analyze(parse_word("[x^60,y^30]"), d=2)
    assert [w.name for w in r.witnesses] == [
        "Alt(5)", "Alt(6)", "PSL(2,4)", "PSL(2,5)", "PSL(2,9)"]
    # one factor Unknown without witnesses: the other's still carry over
    r = analyze(parse_word("[x^30,[y,z]]"), d=2)
    assert [s.verdict for s in r.sub_reports] == [VERDICT_WITNESS, VERDICT_UNKNOWN]
    assert r.verdict == VERDICT_WITNESS
    assert [w.name for w in r.witnesses] == ["Alt(5)", "PSL(2,4)", "PSL(2,5)"]


def test_disjoint_commutator_unknown_embeds():
    r = analyze(parse_word("[[x,y],[z,w]]"), d=2)
    assert r.verdict == VERDICT_UNKNOWN
    assert "subdirect" in r.conclusion
    assert all(s.case == "derived" for s in r.sub_reports)


def test_abelian_law_collapses():
    r = analyze(parse_word("[x,y]"), d=2)
    assert r.case == "disjoint_commutator"
    assert r.verdict == VERDICT_FT
    assert "bare variable" in r.conclusion


def test_analyze_routes_plain_words_to_classify():
    r = analyze(parse_word("x^12"), d=2)
    assert r.case == "periodic"
    assert r.verdict == VERDICT_BURNSIDE


def test_analyze_disjoint_commutator_requires_split():
    with pytest.raises(ValueError):
        analyze_disjoint_commutator(parse_word("x^6"), d=2)
    with pytest.raises(ValueError):
        analyze_disjoint_commutator(parse_word("[x,y] x"), d=2)


def test_report_json_deterministic():
    a = analyze(parse_word("[x^30,y]"), d=2).to_dict()
    b = analyze(parse_word("[x^30,y]"), d=2).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["verdict"] == VERDICT_WITNESS
    # [x^30,y] has word length 62, so the closed form sits at 2*62 + 3.
    assert a["bound"]["main_bound_height"] == 127


def test_config_threads_through():
    cfg = Config(c=4.0)
    r = classify(parse_word("x^30"), d=2, config=cfg)
    assert r.bound.to_dict()["config"]["c"] == 4.0


def test_witnesses_of_a_word_outside_the_power_law_are_checked_on_the_word():
    # y = x turns x^30[x,y] into x^30, which then forces [x,y] = 1: every
    # Alt(5) assignment with [x,y] != 1 refutes it
    r = analyze(parse_word("x^30[x,y]"), d=2)
    assert r.verdict == VERDICT_UNKNOWN and not r.witnesses
    for name in ("alternating(5)", "psl2(4)", "psl2(5)"):
        assert not is_law(parse_word("x^30[x,y]"), make_group(name)).holds
    # x^60 y^-1 x^60 y has exponent 120 but is implied by x^60 alone
    r = analyze(parse_word("x^60 y^-1 x^60 y"), d=2)
    assert [w.name for w in r.witnesses] == ["Alt(5)", "Alt(6)", "PSL(2,4)", "PSL(2,5)",
                                             "PSL(2,9)"]
    assert r.witnesses[0].assignments_checked == 60 ** 2
    assert "law x^60 y^-1 x^60 y on every assignment" in r.notes[-1]


def test_a_pool_group_failing_its_power_law_is_a_fault(monkeypatch):
    # x^30 implies itself, so a candidate failing it means a wrong closed
    # form: here Alt(6), whose exponent is 60, claimed to be 30
    pool = tuple(dataclasses.replace(g, exponent=30) for g in witness_pool())
    monkeypatch.setattr("anaburnside.analyzer.witness_pool", lambda: pool)
    with pytest.raises(RuntimeError, match="Alt\\(6\\)"):
        classify(parse_word("x^30"), d=2)


@st.composite
def _power_times_commutators(draw):
    """A power of exponent 30 or 60 with up to two commutators of powers
    around it: the exponent makes Alt(5) or Alt(6) a candidate, and the
    commutators decide whether it satisfies the word."""
    parts = draw(st.lists(st.builds("[x^{},y^{}]".format, st.sampled_from((1, 2, 30, 60)),
                                    st.sampled_from((1, -1, 30, 60))), max_size=2))
    power = draw(st.sampled_from(("x^30", "x^-60", "y^30", "x^30 y^30", "y^60 x^-60")))
    parts.insert(draw(st.integers(0, len(parts))), power)
    return parse_word(" ".join(parts))


@settings(max_examples=25, deadline=None)
@given(_power_times_commutators())
def test_every_reported_witness_satisfies_the_word(w):
    for witness in analyze(w, d=2).witnesses:
        assert is_law(w, make_group(witness.descriptor)).holds, witness.name
