"""Bound stages: alternating, Lie grid, semisimple, recursion, main bound."""

import math
from collections import Counter

import mpmath
import pytest

import bound_oracle as oracle
from anaburnside import bounds
from anaburnside.bounds import (
    AnabelianBounds,
    BoundParams,
    alt_product_bound,
    anabelian_bound,
    anabelian_bound_series,
    anabelian_intermediate_bound,
    lie_product_bound,
    main_theorem_bound,
    semisimple_bound,
    sporadic_factor,
)
from anaburnside.config import Config
from anaburnside.towers import (
    TowerNumber,
    close_t,
    cmp_t,
    from_real,
    ln_t,
    mul_t,
    render_tower,
    to_real,
    tower,
)
from anaburnside.words import parse_word

# (d, length) pairs whose alternating bound still fits in floating range.
FEASIBLE_POINTS = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (1, 3), (2, 3),
                   (1, 4), (2, 4), (1, 5), (1, 6)]


def oracle_alt_value(d, length):
    """exp(l^2 ln l * exp(d l ln l)) at 200 digits, as an mpmath float."""
    with mpmath.workdps(200):
        l = mpmath.mpf(length)
        return mpmath.exp(l ** 2 * mpmath.ln(l) * mpmath.exp(d * l * mpmath.ln(l)))


def test_params_validation():
    with pytest.raises(ValueError):
        BoundParams(d=0, length=4)
    with pytest.raises(ValueError):
        BoundParams(d=1, length=1)
    with pytest.raises(ValueError):
        BoundParams(d=1, length=4, k=0)


def test_params_x():
    p = BoundParams(d=2, length=30)
    assert math.isclose(bounds._scale_part(p, p.d), 2.0 * 2 * 30 * math.log(30))
    assert bounds._scale_part(BoundParams(d=1, length=2), 1) >= 2


def test_alt_bound_smallest_point_is_exact():
    b = alt_product_bound(BoundParams(d=1, length=2))
    # exp(4 ln2 * exp(2 ln2)) = 2^16.
    assert abs(to_real(b) - 65536) < 1e-40


def test_alt_bound_against_high_precision_oracle():
    for d, length in FEASIBLE_POINTS:
        b = alt_product_bound(BoundParams(d=d, length=length))
        got = to_real(b)
        want = oracle_alt_value(d, length)
        with mpmath.workdps(200):
            rel = abs(mpmath.mpf(got) - want) / want
        assert rel < 1e-9, (d, length, rel)


def test_lie_grid_smallest_point():
    p = BoundParams(d=1, length=2)
    lie = lie_product_bound(p)
    # Only family A admits (k=1, q=2); the term is exp(8 ln 8) = 8^8.
    assert abs(to_real(lie.grids["A"]) - mpmath.mpf(8) ** 8) < 1e-30
    assert cmp_t(lie.grid_total, lie.grids["A"]) == 0
    for family, value in lie.grids.items():
        if family != "A":
            assert cmp_t(value, tower(0, 1)) == 0


def test_lie_closed_form_value():
    p = BoundParams(d=1, length=2)
    lie = lie_product_bound(p)
    # exp(c3 (ln 2)^3 exp(exp(c4 (ln 2)^2))) with unit constants.
    with mpmath.workdps(60):
        ln2 = mpmath.ln(2)
        want = mpmath.exp(ln2 ** 3 * mpmath.exp(mpmath.exp(ln2 ** 2)))
    assert math.isclose(float(to_real(lie.closed)), float(want), rel_tol=1e-12)


def test_lie_grid_under_closed_for_length_at_least_four():
    for d in (1, 2, 3):
        for length in (4, 8, 16):
            lie = lie_product_bound(BoundParams(d=d, length=length))
            assert cmp_t(lie.grid_total, lie.closed) <= 0, (d, length)


def test_sporadic_factor():
    # The default placeholder e^100, raised to d=3, is e^300.
    s = sporadic_factor(BoundParams(d=3, length=4))
    assert math.isclose(float(to_real(ln_t(s))), 300.0, rel_tol=1e-12)


def test_semisimple_product_exact_at_smallest_point():
    p = BoundParams(d=1, length=2)
    ss = semisimple_bound(p)
    with mpmath.workdps(60):
        want = mpmath.ln(mpmath.mpf(65536)) + 8 * mpmath.ln(8) + 100
    got = to_real(ln_t(ss.product))
    assert math.isclose(float(got), float(want), rel_tol=1e-12)


def test_semisimple_normalized_matches_k1_recursion():
    for d in (1, 2, 3):
        for length in (2, 8, 30):
            p = BoundParams(d=d, length=length)
            ss = semisimple_bound(p)
            ab = anabelian_bound(BoundParams(d=d, length=length, k=1))
            assert cmp_t(ss.normalized, ab.recursive) == 0


def test_recursion_chain_inequalities():
    for d in (1, 3, 5):
        for length in (2, 16, 64):
            for k in (1, 2, 5, 20):
                p = BoundParams(d=d, length=length, k=k)
                ab = anabelian_bound(p)
                mid = anabelian_intermediate_bound(p)
                assert cmp_t(ab.recursive, mid) <= 0, (d, length, k)
                assert cmp_t(mid, ab.closed) <= 0, (d, length, k)


def test_closed_height_bookkeeping():
    for d in (1, 2, 5):
        for length in (2, 30):
            for k in (1, 3, 10):
                p = BoundParams(d=d, length=length, k=k)
                ab = anabelian_bound(p)
                base = from_real(2 * bounds._scale_part(p, d))
                assert ab.closed.height == 2 * k + base.height


def test_series_matches_single_shots():
    p = BoundParams(d=2, length=8)
    series = anabelian_bound_series(p, 12)
    assert len(series) == 12
    for k in (1, 4, 12):
        one = anabelian_bound(BoundParams(d=2, length=8, k=k))
        assert cmp_t(series[k - 1].recursive, one.recursive) == 0
        assert cmp_t(series[k - 1].closed, one.closed) == 0
    with pytest.raises(ValueError):
        anabelian_bound_series(p, 0)


def test_main_theorem_bound_height():
    report = main_theorem_bound(parse_word("x^30"), d=2)
    x = 2.0 * 2 * 30 * math.log(30)
    assert report.main_bound.height == 60 + from_real(2 * x).height
    assert report.main_bound.height == 63
    assert cmp_t(report.main_bound, report.anabelian_closed) == 0
    assert cmp_t(report.anabelian_recursive, report.anabelian_closed) <= 0


def test_main_theorem_bound_deterministic():
    a = main_theorem_bound(parse_word("x^30"), d=2)
    b = main_theorem_bound(parse_word("x^30"), d=2)
    assert render_tower(a.main_bound) == render_tower(b.main_bound)
    assert a.to_dict() == b.to_dict()


def test_main_theorem_bound_evaluates_each_stage_once(monkeypatch):
    calls = Counter()
    for name in ("lie_product_bound", "alt_product_bound", "sporadic_factor"):
        def counted(p, fn=getattr(bounds, name), name=name):
            calls[name] += 1
            return fn(p)
        monkeypatch.setattr(bounds, name, counted)
    main_theorem_bound(parse_word("x^30"), d=2)
    assert calls == {"lie_product_bound": 1, "alt_product_bound": 1,
                     "sporadic_factor": 1}


def test_main_theorem_lambda_override():
    base = main_theorem_bound(parse_word("x^30"), d=2)
    capped = main_theorem_bound(parse_word("x^30"), d=2, lambda_override=1)
    assert base.lambda_used == 30
    assert capped.lambda_used == 1
    assert cmp_t(capped.main_bound, base.main_bound) < 0


def test_main_theorem_rejects_empty_word():
    with pytest.raises(ValueError):
        main_theorem_bound(parse_word("x x^-1"), d=2)


def test_main_theorem_short_word_note():
    report = main_theorem_bound(parse_word("x"), d=1)
    assert report.params.length == 2
    assert any("length" in n for n in report.notes)


def test_report_to_dict_round_trip():
    report = main_theorem_bound(parse_word("[x,y]"), d=2)
    data = report.to_dict()
    assert data["main_bound"] == render_tower(report.main_bound)
    assert data["main_bound_height"] == report.main_bound.height
    assert data["config"]["c"] == 2.0


def test_oracle_precision_rerun():
    # The working precision can be raised; results agree with the default run.
    base = alt_product_bound(BoundParams(d=1, length=2))
    high = alt_product_bound(BoundParams(d=1, length=2, config=Config(precision=200)))
    assert close_t(base, high, tol=1e-40)


def test_stages_run_at_the_configured_precision():
    # exp(4 ln2 * exp(2 ln2)) = 2^16 = E_3(ln ln(16 ln 2))
    with mpmath.workdps(120):
        want = mpmath.ln(mpmath.ln(16 * mpmath.ln(2)))
    high = alt_product_bound(BoundParams(1, 2, config=Config(precision=120)))
    low = alt_product_bound(BoundParams(1, 2))
    assert high.height == low.height == 3
    with mpmath.workdps(120):
        assert abs(high.index - want) < mpmath.mpf(10) ** -100
        assert abs(low.index - want) > mpmath.mpf(10) ** -100


# Differential checks against the literal loops in `bound_oracle`. The full
# (d, length) sweep runs at the default precision; high precision and other
# constants run on a sample of it, since the literal loops cost about a
# second per length-1200 point at 200 digits.
SWEEP_D = (1, 2, 3, 5, 50)
SWEEP_LENGTHS = (2, 3, 7, 30, 120, 350, 1200)
OTHER_CONFIGS = (Config(precision=200), Config(c=3.5, c1=0.75),
                 Config(precision=200, c=2.5, c1=2.5, c2=1.5))
OTHER_POINTS = ((1, 2), (2, 3), (3, 7), (5, 30), (50, 120), (2, 350))


def assert_recursion_matches_literal(p):
    want = oracle.recursion_series(p, p.length)
    got = anabelian_bound_series(p, p.length)
    single = anabelian_bound(p).recursive
    assert [a.recursive.height for a in got] == [w.height for w in want]
    assert [a.recursive.index for a in got] == [w.index for w in want]
    assert [a.recursive.inexact for a in got] == [w.inexact for w in want]
    assert (single.height, single.index, single.inexact) == \
        (want[-1].height, want[-1].index, want[-1].inexact)


def assert_grids_match_literal(p):
    want = oracle.grid_fold(p)
    got = lie_product_bound(p).grids
    assert list(got) == list(want)
    tol = mpmath.mpf(10) ** (10 - p.config.precision)
    for family, w in want.items():
        g = got[family]
        assert (g.height, g.inexact) == (w.height, w.inexact), family
        assert abs(g.index - w.index) <= tol, family


@pytest.mark.parametrize("length", SWEEP_LENGTHS)
@pytest.mark.parametrize("d", SWEEP_D)
def test_recursion_matches_literal_steps(d, length):
    assert_recursion_matches_literal(BoundParams(d, length, length))


@pytest.mark.parametrize("length", SWEEP_LENGTHS)
@pytest.mark.parametrize("d", SWEEP_D)
def test_grids_match_literal_fold(d, length):
    assert_grids_match_literal(BoundParams(d, length, length))


@pytest.mark.parametrize("config", OTHER_CONFIGS, ids=("dps200", "c3.5_c1_0.75", "dps200_c1_2.5"))
@pytest.mark.parametrize("d, length", OTHER_POINTS)
def test_stages_match_literal_under_other_configs(d, length, config):
    p = BoundParams(d, length, length, config)
    assert_recursion_matches_literal(p)
    assert_grids_match_literal(p)


def test_grid_fallback_is_reached_and_matches(monkeypatch):
    # (2^133)^50 * 133 ln 2 exceeds CHEAP_MAG bits: E7(2) at d = 50 leaves the
    # log-space sum for the factor-by-factor fold
    terms = Counter()

    def counted(family, k, q, d, fn=bounds._grid_term):
        terms[family] += 1
        return fn(family, k, q, d)
    monkeypatch.setattr(bounds, "_grid_term", counted)
    p = BoundParams(50, 1200, 1200)
    assert_grids_match_literal(p)
    assert terms["E7"] == 1
    terms.clear()
    assert_grids_match_literal(BoundParams(2, 1200, 1200))
    assert not terms


def test_recursion_settles_after_a_few_steps(monkeypatch):
    calls = Counter()

    def counted(x, y, fn=bounds.mul_t):
        calls["mul_t"] += 1
        return fn(x, y)
    monkeypatch.setattr(bounds, "mul_t", counted)
    ab = anabelian_bound(BoundParams(2, 10 ** 6, 10 ** 6))
    assert calls["mul_t"] <= 20
    assert ab.recursive.inexact
    assert cmp_t(ab.recursive, ab.closed) <= 0


@pytest.mark.parametrize("exponent", (1, 2, 3, 2.5, 7))
def test_largest_admissible_q_matches_linear_probe(exponent):
    lengths = set(range(2, 130)) | {1200, 2401, 4095, 4096, 4097, 5000}
    lengths |= {q ** e + s for q in range(2, 71) for e in (1, 2, 3, 7)
                for s in (-1, 0, 1) if 2 <= q ** e + s <= 5000}
    if exponent == 1:
        lengths = {L for L in lengths if L <= 1500} | {4096, 5000}
    for length in sorted(lengths):
        assert bounds._largest_admissible_q(length, exponent) == \
            oracle.largest_admissible_q(length, exponent), length
    # the float cube root of 64 rounds to 3.9999999999999996
    assert bounds._largest_admissible_q(64, 3.0) == 4
