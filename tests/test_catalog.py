"""Catalog tables, exact orders, law-length bounds, candidate enumeration."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest

from anaburnside import catalog
from anaburnside.catalog import (
    FAMILY_ORDER,
    AltId,
    AValue,
    LieId,
    SporadicId,
    a_value,
    b_value,
    candidates_for_law_length,
    catalog_table_json,
    catalog_table_rows,
    exact_order,
    is_prime_power,
    known_groups,
    law_length_lower_bound,
    psl2,
)
from anaburnside.engine import make_group, shortest_law_search

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "catalog_snapshot.json")


def test_a_value_table():
    assert a_value("A", 3) == AValue(2, 2)
    assert a_value("A", 1) == AValue(1, 1)
    assert a_value("2A", 4) == AValue(2, 2)
    assert a_value("B", 4) == AValue(4, 4)
    assert a_value("B", 5) == AValue(4, 5)
    assert a_value("C", 7) == AValue(7, 7)
    assert a_value("D", 5) == AValue(3, 4)
    assert a_value("2D", 6) == AValue(6, 6)
    assert a_value("2D", 7) == AValue(6, 6)
    fixed = {"E6": 4, "2E6": 4, "E7": 7, "E8": 7, "F4": 4, "G2": 1,
             "3D4": 3, "2B2": 1, "2F4": 2, "2G2": 1}
    for family, a in fixed.items():
        assert a_value(family) == AValue(a, a)


def test_b_value_table():
    assert b_value("A", 2) == 8
    assert b_value("2A", 2) == 8
    assert b_value("B", 3) == 21
    assert b_value("C", 3) == 21
    assert b_value("D", 4) == 28
    assert b_value("2D", 4) == 28
    fixed = {"E6": 78, "2E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14,
             "3D4": 28, "2B2": 5, "2F4": 26, "2G2": 7}
    for family, b in fixed.items():
        assert b_value(family) == b


def test_rank_constraints():
    with pytest.raises(ValueError):
        a_value("2A", 1)
    with pytest.raises(ValueError):
        a_value("C", 2)
    with pytest.raises(ValueError):
        b_value("D", 3)
    with pytest.raises(ValueError):
        a_value("E8", 7)
    with pytest.raises(ValueError):
        LieId("2B2", 2, 4)       # even power of 2
    with pytest.raises(ValueError):
        LieId("2F4", 4, 2)       # Tits boundary case excluded
    with pytest.raises(ValueError):
        LieId("2G2", 2, 9)       # even power of 3
    with pytest.raises(ValueError):
        LieId("A", 1, 6)         # not a prime power
    with pytest.raises(ValueError):
        AltId(4)
    with pytest.raises(ValueError):
        SporadicId(27)


def test_exact_order():
    assert exact_order(AltId(6)) == 360
    assert exact_order(psl2(7)) == 168
    assert exact_order(psl2(4)) == 60
    assert exact_order(psl2(8)) == 504
    assert exact_order(LieId("E8", 8, 2)) is None
    assert exact_order(AltId(21)) is None


def test_exact_order_below_upper_bound():
    for q in range(2, 1001):
        if not is_prime_power(q):
            continue
        assert exact_order(psl2(q)) <= q ** b_value("A", 1)


def test_law_length_lower_bound():
    assert law_length_lower_bound(psl2(7)) == 7
    assert law_length_lower_bound(LieId("2B2", 2, 8)) == 2
    assert law_length_lower_bound(AltId(7)) == 7
    assert law_length_lower_bound(SporadicId(5)) == 1
    assert law_length_lower_bound(LieId("B", 5, 2), c_lower=1.0) == 16
    assert law_length_lower_bound(psl2(7), c_lower=0.5) == 3


@pytest.mark.parametrize("gid", [AltId(5), AltId(6), AltId(7), psl2(7), psl2(8), psl2(11)],
                         ids=str)
def test_law_length_lower_bound_holds_on_desk_scale_groups(gid):
    # at the default c_lower, no 2-variable law is shorter than the bound
    bound = law_length_lower_bound(gid)
    G = make_group(known_groups()[gid].descriptor)
    assert shortest_law_search(G, bound - 1, 2).certificate == "none_up_to(%d)" % (bound - 1)


def test_candidates_small_lengths():
    with pytest.raises(ValueError):
        candidates_for_law_length(0)
    c1 = candidates_for_law_length(1)
    assert [str(g) for g in c1 if not isinstance(g, SporadicId)] == ["2B2(2)"]
    assert sum(isinstance(g, SporadicId) for g in c1) == 26
    c4 = candidates_for_law_length(4)
    names = [str(g) for g in c4]
    assert "A_1(4)" in names and "A_1(5)" not in names
    assert not any(isinstance(g, AltId) for g in c4)


def test_candidates_length_30():
    c30 = candidates_for_law_length(30)
    alts = [g.m for g in c30 if isinstance(g, AltId)]
    assert alts == list(range(5, 31))
    qs = [g.q for g in c30 if isinstance(g, LieId) and (g.family, g.k) == ("A", 1)]
    assert qs == [q for q in range(2, 31) if is_prime_power(q)]


def test_candidates_psl2_iff():
    for length in [2, 3, 5, 8, 13, 21, 34]:
        have = {g.q for g in candidates_for_law_length(length)
                if isinstance(g, LieId) and (g.family, g.k) == ("A", 1)}
        want = {q for q in range(2, 2 * length + 4) if is_prime_power(q) and q <= length}
        assert have == want


def test_candidates_monotone():
    prev = set()
    for length in range(1, 16):
        cur = {str(g) for g in candidates_for_law_length(length)}
        assert prev <= cur
        prev = cur


def _prime_powers(limit):
    """Prime powers 2..limit, ascending, from a sieve."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    out = []
    for p in range(2, limit + 1):
        q = p
        while sieve[p] and q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


def _candidates_by_full_scan(lengths, c_lower):
    """Candidate lists for each length, in exact arithmetic and without an
    early stop: every admissible q up to ((max length + 1)/c_lower)^2, past
    which even floor(c*sqrt(q)) exceeds every length, and every rank up to
    20, where even q = 2 gives every family a bound of at least c*2^10, are
    tested."""
    c = Fraction(c_lower)
    num, den = c.numerator, c.denominator
    limit = math.floor(((max(lengths) + 1) / c) ** 2) + 1
    all_qs = _prime_powers(limit)
    qs_of = {"all": all_qs,
             "odd2": [q for q in all_qs if q & (q - 1) == 0 and q.bit_length() % 2 == 0],
             "odd3": [3 ** e for e in range(1, 40, 2) if 3 ** e <= limit]}
    qs_of["odd2_min8"] = [q for q in qs_of["odd2"] if q >= 8]
    huge = 10 ** 6
    scans = []
    for family in FAMILY_ORDER:
        fixed = catalog._FIXED_RANK.get(family)
        for k in [fixed] if fixed else range(catalog._MIN_RANK[family], 21):
            qs = qs_of[catalog._Q_KIND[family]]
            if family == "2B2":
                bounds = [math.isqrt(num * num * q // (den * den)) for q in qs]
            else:
                a = a_value(family, k).low
                bounds = [num * q ** a // den if q ** a <= huge else huge for q in qs]
            scans.append((family, k, np.array(qs), np.array(bounds)))
    out = {}
    for length in lengths:
        alts = [AltId(m) for m in range(5, 10 * length + 5) if num * m // den <= length]
        lie = [LieId(family, k, int(q)) for family, k, qs, bounds in scans
               for q in qs[bounds <= length]]
        out[length] = alts + lie + [SporadicId(i) for i in range(1, 27)]
    return out


def test_candidates_match_full_scan():
    cases = [(range(1, 151), 1.0), ((1, 2, 5, 30, 120), 0.5), ((1, 2, 5, 30, 120), 3.0)]
    for lengths, c_lower in cases:
        want = _candidates_by_full_scan(lengths, c_lower)
        for length in lengths:
            assert candidates_for_law_length(length, c_lower) == want[length], (length, c_lower)


def test_candidates_walk_every_rank_under_a_small_constant():
    # under c_lower = 0.01, A_13(2) to A_16(2) have bounds 1, 1, 2 and 2, so a
    # law of length 2 excludes none of them; A_17(2) has bound 5
    got = candidates_for_law_length(2, 0.01)
    assert [law_length_lower_bound(LieId("A", k, 2), 0.01) for k in range(13, 18)] == [
        1, 1, 2, 2, 5]
    assert max(g.k for g in got if isinstance(g, LieId) and g.family == "A") == 16
    # the scan's alternating range is too short for this constant: Alt(m)
    # stays up to m = 299, where floor(0.01*m) = 2
    lie = [g for g in _candidates_by_full_scan([2], 0.01)[2] if isinstance(g, LieId)]
    assert got == [AltId(m) for m in range(5, 300)] + lie + [SporadicId(i) for i in range(1, 27)]


def test_candidates_keep_suzuki_groups_at_the_length():
    # floor(sqrt(8)) = 2: a law of length 2 does not exclude 2B2(8)
    assert LieId("2B2", 2, 8) in candidates_for_law_length(2)
    assert LieId("2B2", 2, 32) in candidates_for_law_length(5)


def test_candidates_reject_nonpositive_constant():
    with pytest.raises(ValueError):
        candidates_for_law_length(10, c_lower=0)


def test_candidates_deterministic_order():
    a = [str(g) for g in candidates_for_law_length(12)]
    b = [str(g) for g in candidates_for_law_length(12)]
    assert a == b
    kinds = [type(g).__name__ for g in candidates_for_law_length(12)]
    first_lie = kinds.index("LieId")
    first_spor = kinds.index("SporadicId")
    assert all(k == "AltId" for k in kinds[:first_lie])
    assert all(k == "SporadicId" for k in kinds[first_spor:])
    lie = [g for g in candidates_for_law_length(12) if isinstance(g, LieId)]
    fam_seq = [g.family for g in lie]
    order = [f for f in FAMILY_ORDER if f in fam_seq]
    grouped = []
    for f in fam_seq:
        if not grouped or grouped[-1] != f:
            grouped.append(f)
    assert grouped == order
    for f in order:
        pairs = [(g.k, g.q) for g in lie if g.family == f]
        assert pairs == sorted(pairs)


def test_table_rows_shape():
    rows = catalog_table_rows()
    assert len(rows) == 60
    per_family = {}
    for r in rows:
        per_family.setdefault(r["family"], []).append(r["k"])
    assert per_family["A"] == list(range(1, 11))
    assert per_family["2A"] == list(range(2, 11))
    assert per_family["C"] == list(range(3, 11))
    assert per_family["D"] == list(range(4, 11))
    assert per_family["E8"] == [8]
    for r in rows:
        a = a_value(r["family"], r["k"])
        assert (r["a_low"], r["a_high"]) == (a.low, a.high)
        assert r["b"] == b_value(r["family"], r["k"])


def test_catalog_json_byte_stable():
    with open(SNAPSHOT, "rb") as fh:
        frozen = fh.read()
    assert catalog_table_json().encode() == frozen
    assert catalog_table_json() == catalog_table_json()
