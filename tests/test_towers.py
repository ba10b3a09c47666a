"""Tower arithmetic: canonical form, ordering, identities, precision oracles."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from anaburnside.errors import TowerOverflow
from anaburnside.towers import (
    ONE,
    ZERO,
    TowerNumber,
    big_E,
    close_t,
    cmp_t,
    exp_t,
    from_real,
    ln_t,
    mul_t,
    parse_tower,
    pow_t,
    render_tower,
    to_real,
    tower,
)


def canon200(x):
    """Independent canonicalization at 200 digits: (height, index)."""
    with mp.workdps(200):
        v = mp.mpf(x)
        h = 0
        while v >= 1:
            v = mp.ln(v)
            h += 1
        return h, v


def assert_matches_oracle(t, x, tol="1e-40"):
    h, f = canon200(x)
    assert t.height == h
    with mp.workdps(200):
        assert abs(mp.mpf(t.index) - f) <= mp.mpf(tol)


def test_from_real_below_one_is_height_zero():
    t = from_real(0.5)
    assert (t.height, t.index) == (0, mp.mpf("0.5"))


def test_from_real_e_is_height_two_index_zero():
    with mp.workdps(60):
        assert from_real(mp.e) == TowerNumber(2, 0)


def test_from_real_ten_matches_iterated_log_oracle():
    t = from_real(10)
    assert t.height == 2
    assert_matches_oracle(t, 10)
    with mp.workdps(60):
        assert abs(t.index - mp.mpf("0.8340")) < mp.mpf("1e-4")


def test_from_real_one_and_zero():
    assert from_real(1) == ONE == TowerNumber(1, 0)
    assert from_real(0) == ZERO == TowerNumber(0, 0)


def test_from_real_rejects_negative():
    with pytest.raises(ValueError):
        from_real(-3)


def test_exp_t_is_height_shift():
    assert exp_t(TowerNumber(1, 0.5)) == TowerNumber(2, 0.5)
    assert exp_t(TowerNumber(5, 0.99)) == TowerNumber(6, 0.99)
    assert exp_t(TowerNumber(0, 0)) == TowerNumber(1, 0)
    assert exp_t(from_real(0)) == from_real(1)


def test_ln_t_inverts_exp_t():
    assert ln_t(TowerNumber(3, 0.2)) == TowerNumber(2, 0.2)
    assert ln_t(TowerNumber(1, 0)) == TowerNumber(0, 0)
    with mp.workdps(60):
        assert ln_t(from_real(mp.exp(mp.e))) == from_real(mp.e)
    for h, f in [(0, 0.7), (1, 0.3), (4, 0.9), (12, 0.01)]:
        t = TowerNumber(h, f)
        assert ln_t(exp_t(t)) == t


def test_ln_t_domain_errors():
    with pytest.raises(ValueError):
        ln_t(ZERO)
    with pytest.raises(ValueError):
        ln_t(from_real(0.5))


def test_mul_small_values_exact():
    assert mul_t(from_real(4), from_real(8)) == from_real(32)
    assert mul_t(from_real(4), from_real(8)) == mul_t(from_real(8), from_real(4))


def test_mul_identity_and_zero():
    x = from_real("123.456")
    assert mul_t(x, ONE) == x
    assert mul_t(ONE, x) == x
    assert mul_t(x, ZERO) == ZERO


def test_mul_e_to_the_e_squared_has_ln_two_e():
    with mp.workdps(60):
        ee = from_real(mp.exp(mp.e))
        prod = mul_t(ee, ee)
        assert prod == from_real(mp.exp(2 * mp.e))
        assert ln_t(prod) == from_real(2 * mp.e)
        assert_matches_oracle(prod, mp.exp(2 * mp.e))


def test_mul_low_height_against_200_digit_oracle():
    rng = random.Random(7)
    with mp.workdps(200):
        for _ in range(50):
            a = mp.mpf(rng.uniform(1.5, 3000.0))
            b = mp.mpf(rng.uniform(1.5, 3000.0))
            x, y = from_real(a), from_real(b)
            assert max(x.height, y.height) <= 3
            assert_matches_oracle(mul_t(x, y), a * b)


def test_mul_large_equal_heights_dominant_with_flag():
    a = TowerNumber(8, 0.5)
    r = mul_t(a, a)
    assert (r.height, r.index) == (8, mp.mpf("0.5"))
    assert r.inexact


def test_mul_mixed_heights_keeps_dominant():
    big = TowerNumber(9, 0.5)
    small = from_real(1000)
    r = mul_t(big, small)
    assert r.height == 9
    assert cmp_t(r, big) >= 0
    small2 = from_real(0.25)
    r2 = mul_t(big, small2)
    assert (r2.height, r2.inexact) == (9, True)


def test_inexact_flag_is_sticky():
    a = TowerNumber(8, 0.5)
    r = mul_t(a, a)
    assert r.inexact
    assert exp_t(r).inexact and ln_t(r).inexact and big_E(3, r).inexact
    assert mul_t(r, ONE).inexact
    assert mul_t(r, from_real(2)).inexact


def test_cmp_examples():
    assert cmp_t(TowerNumber(3, 0.1), TowerNumber(2, 0.9)) > 0
    assert cmp_t(TowerNumber(2, 0.5), TowerNumber(2, 0.5)) == 0
    assert cmp_t(from_real(100), from_real(99)) > 0
    assert TowerNumber(3, 0.1) > TowerNumber(2, 0.9)
    assert TowerNumber(0, 0.99) < ONE


def test_cmp_roundtrip_matches_real_order():
    rng = random.Random(20260816)
    vals = [rng.uniform(0, 1e10) for _ in range(200)]
    towers = [from_real(repr(v)) for v in vals]
    for i in range(0, 200, 2):
        a, b = vals[i], vals[i + 1]
        ta, tb = towers[i], towers[i + 1]
        want = (a > b) - (a < b)
        assert cmp_t(ta, tb) == want


def test_big_e_identities():
    x = from_real("7.25")
    assert big_E(0, x) == x
    t = big_E(2, from_real(2))
    with mp.workdps(60):
        assert t == from_real(mp.exp(mp.exp(2)))
        assert abs(to_real(t) - mp.mpf("1618.1779919126539")) < mp.mpf("1e-10")
    with mp.workdps(200):
        assert_matches_oracle(t, mp.exp(mp.exp(2)))


def test_big_e_height_bookkeeping():
    base = from_real(2)
    assert base.height == 1
    assert big_E(60, base).height == 61
    assert big_E(10 ** 6, base).height == 10 ** 6 + 1
    assert big_E(10 ** 6, base).index == base.index


def test_big_e_monotone_in_height():
    for f in ["0", "0.5", "2", "7.2", "1000"]:
        x = from_real(f)
        prev = x
        for k in range(1, 21):
            cur = big_E(k, x)
            assert cmp_t(prev, cur) <= 0
            prev = cur


def test_submultiplicativity_low_heights_against_oracle():
    # E_k(x) * E_k(y) <= E_k(x*y) for x, y >= 2; exact reals for k <= 2
    cases = [(2, 2), (2, 3), (2.5, 7.25), (3, 19), (2, 100)]
    with mp.workdps(200):
        for xv, yv in cases:
            x, y = mp.mpf(xv), mp.mpf(yv)
            for k in range(0, 3):
                lhs = mp.mpf(1)
                a, b, ab = x, y, x * y
                for _ in range(k):
                    a, b, ab = mp.exp(a), mp.exp(b), mp.exp(ab)
                assert a * b <= ab
                tl = mul_t(big_E(k, from_real(xv)), big_E(k, from_real(yv)))
                tr = big_E(k, mul_t(from_real(xv), from_real(yv)))
                assert cmp_t(tl, tr) <= 0


def test_submultiplicativity_k3_via_ln_descent():
    # ln of both sides: E_2(x) + E_2(y) <= E_2(xy), checked as reals
    cases = [(2, 2), (2.5, 7.25), (3, 19)]
    with mp.workdps(200):
        for xv, yv in cases:
            e2x = mp.exp(mp.exp(mp.mpf(xv)))
            e2y = mp.exp(mp.exp(mp.mpf(yv)))
            e2xy = mp.exp(mp.exp(mp.mpf(xv) * mp.mpf(yv)))
            assert e2x + e2y <= e2xy
            tl = mul_t(big_E(3, from_real(xv)), big_E(3, from_real(yv)))
            tr = big_E(3, mul_t(from_real(xv), from_real(yv)))
            assert cmp_t(tl, tr) <= 0
            assert cmp_t(ln_t(tl), ln_t(tr)) <= 0


def test_to_real_overflow():
    with pytest.raises(TowerOverflow):
        to_real(TowerNumber(8, 0.5))
    v = to_real(TowerNumber(4, 0.5))
    with mp.workdps(60):
        assert v > mp.mpf("1e78")


def test_tower_constructor_requires_canonical():
    with pytest.raises(ValueError):
        TowerNumber(2, 5.0)
    with pytest.raises(ValueError):
        TowerNumber(-1, 0.5)
    with pytest.raises(ValueError):
        TowerNumber(0, -0.5)


def test_tower_factory_canonicalizes():
    t = tower(1, 100)
    with mp.workdps(60):
        assert t == from_real(mp.exp(100))
    with mp.workdps(60):
        f = mp.mpf("-0.3")
        assert tower(3, f) == from_real(mp.exp(mp.exp(mp.exp(f))))
    assert tower(3, "-0.3").height == 2
    assert tower(0, "2.5") == from_real("2.5")
    with pytest.raises(ValueError):
        tower(0, -1)


def test_render_and_parse():
    s = render_tower(from_real(10))
    assert s.startswith("E_2(0.834")
    assert "= 10.0" in s
    assert "=" not in render_tower(big_E(60, from_real(2)))
    t = parse_tower("E_1(100)")
    with mp.workdps(60):
        assert close_t(t, from_real(mp.exp(100)))
    assert parse_tower("105") == from_real(105)
    assert parse_tower(" E_3(0.25) ") == TowerNumber(3, 0.25)
    back = parse_tower(render_tower(from_real(10)))
    assert back.height == 2
    with pytest.raises(ValueError):
        parse_tower("banana")


def test_pow_t():
    assert pow_t(from_real(2), 10) == from_real(1024)
    assert pow_t(from_real(5), 0) == ONE
    assert pow_t(from_real(5), 1) == from_real(5)
    big = TowerNumber(7, 0.3)
    p = pow_t(big, 5)
    assert p.height == 7
    assert cmp_t(p, big) >= 0
    with pytest.raises(ValueError):
        pow_t(from_real(2), -1)


def test_hash_consistent_with_eq():
    a = mul_t(from_real(4), from_real(8))
    b = from_real(32)
    assert a == b and hash(a) == hash(b)


def test_close_t():
    assert close_t(TowerNumber(2, 0.5), TowerNumber(2, 0.5))
    assert not close_t(TowerNumber(2, 0.5), TowerNumber(3, 0.5))
    assert not close_t(TowerNumber(2, 0.5), TowerNumber(2, 0.6))


# Tower values across the heights the bounds produce. The listed indexes add
# ties and the edge of the exact regime: E_5(0.7291) is about exp(2^4096),
# where mul_t and _add_t switch to the dominant-operand shortcut.
indexes = st.floats(0, 1, exclude_max=True) | st.sampled_from((0.0, 0.5, 0.7291, 0.72911))
towers = st.builds(TowerNumber, st.integers(0, 9), indexes)
PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(towers, towers)
def test_cmp_t_is_antisymmetric(x, y):
    assert cmp_t(x, y) == -cmp_t(y, x)
    assert cmp_t(x, x) == 0


@PROPERTY
@given(towers, towers, towers)
def test_cmp_t_is_transitive(x, y, z):
    if cmp_t(x, y) <= 0 and cmp_t(y, z) <= 0:
        assert cmp_t(x, z) <= 0
    if cmp_t(x, y) < 0 and cmp_t(y, z) < 0:
        assert cmp_t(x, z) < 0


@PROPERTY
@given(towers, towers, towers)
# an index below resolution compares equal to zero, so it multiplies as zero
@example(TowerNumber(0, 4.23395954662e-161), TowerNumber(0, 0), TowerNumber(5, 0))
def test_mul_t_is_monotone_in_each_argument(x, y, z):
    lo, hi = (x, y) if cmp_t(x, y) <= 0 else (y, x)
    assert cmp_t(mul_t(lo, z), mul_t(hi, z)) <= 0
    assert cmp_t(mul_t(z, lo), mul_t(z, hi)) <= 0


@PROPERTY
@given(towers, st.integers(1, 6))
def test_pow_t_agrees_with_repeated_mul_t(x, n):
    product = x
    for _ in range(n - 1):
        product = mul_t(product, x)
    assert close_t(pow_t(x, n), product)


bases = st.builds(TowerNumber, st.integers(1, 9), indexes)  # values >= 1
exponents = st.integers(0, 50)


@PROPERTY
@given(bases, bases, exponents, exponents)
def test_pow_t_is_monotone_in_base_and_exponent(x, y, m, n):
    lo, hi = (x, y) if cmp_t(x, y) <= 0 else (y, x)
    assert cmp_t(pow_t(lo, n), pow_t(hi, n)) <= 0
    m, n = min(m, n), max(m, n)
    assert cmp_t(pow_t(x, m), pow_t(x, n)) <= 0
