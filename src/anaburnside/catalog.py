"""Finite simple group catalog: CFSG families, exponent tables, candidate enumeration.

Encodes the sixteen Lie-type families with their a(X) and b(X) exponents,
alternating and sporadic groups, the law-length lower bounds (Bradford-Thom
type) used to enumerate which simple groups can satisfy a law of a given
length, and the one table of the simple groups the tool knows by name:
their exact orders, exponents and builders, from which the analyzer draws
its witness pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

from mpmath import mp

from .config import Config
from .towers import get_precision

# Family order follows the classification list: classical, then exceptional.
FAMILY_ORDER = (
    "A", "2A", "B", "C", "D", "2D",
    "E6", "2E6", "E7", "E8", "F4", "G2", "3D4", "2B2", "2F4", "2G2",
)

# rank constraints: classical families carry a minimal rank (below it the
# symbol names a smaller family or a non-simple group); exceptional families
# have one fixed rank.
_MIN_RANK = {"A": 1, "2A": 2, "B": 2, "C": 3, "D": 4, "2D": 4}
_FIXED_RANK = {
    "E6": 6, "2E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
    "3D4": 4, "2B2": 2, "2F4": 4, "2G2": 2,
}

# q constraints: Suzuki and Ree families live over odd powers of 2 resp. 3;
# the Tits group 2F4(2) is excluded here and treated as a sporadic-style
# placeholder, so 2F4 starts at q = 8.
_Q_KIND = {tag: "all" for tag in FAMILY_ORDER}
_Q_KIND.update({"2B2": "odd2", "2F4": "odd2_min8", "2G2": "odd3"})

SPORADIC_NAMES = (
    "M11", "M12", "M22", "M23", "M24",
    "J1", "J2", "J3", "J4",
    "Co1", "Co2", "Co3",
    "Fi22", "Fi23", "Fi24'",
    "HS", "McL", "He", "Ru", "Suz", "ON", "HN", "Ly", "Th",
    "B", "M",
)


@dataclass(frozen=True)
class AltId:
    m: int

    def __post_init__(self):
        if self.m < 5:
            raise ValueError("alternating groups are simple only for degree >= 5")

    def __str__(self):
        return "Alt(%d)" % self.m


@dataclass(frozen=True)
class LieId:
    family: str
    k: int
    q: int

    def __post_init__(self):
        _check_rank(self.family, self.k)
        if not _q_admissible(self.family, self.q):
            raise ValueError("q=%d not admissible for family %s" % (self.q, self.family))

    def __str__(self):
        if self.family in _FIXED_RANK:
            return "%s(%d)" % (self.family, self.q)
        return "%s_%d(%d)" % (self.family, self.k, self.q)


@dataclass(frozen=True)
class SporadicId:
    index: int

    def __post_init__(self):
        if not (1 <= self.index <= 26):
            raise ValueError("sporadic index must lie in 1..26")

    @property
    def name(self):
        return SPORADIC_NAMES[self.index - 1]

    def __str__(self):
        return "Sporadic(%s)" % self.name


def psl2(q: int) -> LieId:
    """PSL(2,q) as the rank-1 A-family entry."""
    return LieId("A", 1, q)


def _check_rank(family: str, k: int) -> None:
    if family in _MIN_RANK:
        if k < _MIN_RANK[family]:
            raise ValueError(
                "family %s needs rank >= %d, got %d" % (family, _MIN_RANK[family], k)
            )
    elif family in _FIXED_RANK:
        if k != _FIXED_RANK[family]:
            raise ValueError(
                "family %s has fixed rank %d, got %d" % (family, _FIXED_RANK[family], k)
            )
    else:
        raise ValueError("unknown family %r" % family)


def factorize(n: int) -> tuple:
    """Prime factorization of n >= 1 by trial division, as sorted (p, e)
    pairs; empty for n = 1."""
    if n < 1:
        raise ValueError("can only factorize positive integers")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime_power(q: int) -> bool:
    return q >= 2 and len(factorize(q)) == 1


def _q_admissible(family: str, q: int) -> bool:
    factors = factorize(q) if q >= 2 else ()
    if len(factors) != 1:
        return False
    kind = _Q_KIND[family]
    if kind == "all":
        return True
    if kind == "odd2_min8" and q < 8:
        return False
    p, e = factors[0]
    return p == (3 if kind == "odd3" else 2) and e % 2 == 1


def family_ranks(family: str, max_rank: int) -> list:
    """Valid ranks for the family, ascending, up to max_rank inclusive."""
    if family in _FIXED_RANK:
        k = _FIXED_RANK[family]
        return [k] if k <= max_rank else []
    if family not in _MIN_RANK:
        raise ValueError("unknown family %r" % family)
    return list(range(_MIN_RANK[family], max_rank + 1))


def _admissible_qs(family: str):
    """Admissible field sizes q for the family, ascending, without end."""
    if family not in _Q_KIND:
        raise ValueError("unknown family %r" % family)
    kind = _Q_KIND[family]
    if kind == "all":
        return filter(is_prime_power, itertools.count(2))
    if kind == "odd3":
        return (3 ** e for e in itertools.count(1, 2))
    return (1 << e for e in itertools.count(3 if kind == "odd2_min8" else 1, 2))


def admissible_q_values(family: str, limit: int) -> list:
    """Admissible field sizes q for the family, ascending, up to limit inclusive."""
    return list(itertools.takewhile(lambda q: q <= limit, _admissible_qs(family)))


@dataclass(frozen=True)
class AValue:
    low: int
    high: int

    def __post_init__(self):
        if not (1 <= self.low <= self.high):
            raise ValueError("a-value interval must satisfy 1 <= low <= high")


_FIXED_A = {
    "E6": 4, "2E6": 4, "E7": 7, "E8": 7, "F4": 4, "G2": 1,
    "3D4": 3, "2B2": 1, "2F4": 2, "2G2": 1,
}
_FIXED_B = {
    "E6": 78, "2E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14,
    "3D4": 28, "2B2": 5, "2F4": 26, "2G2": 7,
}


def a_value(family: str, k: int | None = None) -> AValue:
    """Law-length exponent a(X); B and D entries are two-valued intervals."""
    if family in _FIXED_A:
        if k is not None:
            _check_rank(family, k)
        return AValue(_FIXED_A[family], _FIXED_A[family])
    if k is None:
        raise ValueError("family %s needs a rank" % family)
    _check_rank(family, k)
    if family in ("A", "2A"):
        v = (k + 1) // 2
        return AValue(v, v)
    if family == "B":
        u, v = 2 * (k // 2), k
        return AValue(min(u, v), max(u, v))
    if family == "C":
        return AValue(k, k)
    if family == "D":
        return AValue(k - 2, k - 1)
    if family == "2D":
        v = 2 * (k // 2)
        return AValue(v, v)
    raise ValueError("unknown family %r" % family)


def b_value(family: str, k: int | None = None) -> int:
    """Order exponent b(X): |X_k(q)| <= q^b (constant 1 adopted)."""
    if family in _FIXED_B:
        if k is not None:
            _check_rank(family, k)
        return _FIXED_B[family]
    if k is None:
        raise ValueError("family %s needs a rank" % family)
    _check_rank(family, k)
    if family in ("A", "2A"):
        return k * k + 2 * k
    if family in ("B", "C"):
        return 2 * k * k + k
    if family in ("D", "2D"):
        return 2 * k * k - k
    raise ValueError("unknown family %r" % family)


def exact_order(gid):
    """Exact order where safely derivable: Alt(m <= 20) and PSL(2,q); else None."""
    if isinstance(gid, AltId) and gid.m <= 20:
        return math.factorial(gid.m) // 2
    if isinstance(gid, LieId) and (gid.family, gid.k) == ("A", 1):
        q = gid.q
        return q * (q * q - 1) // math.gcd(2, q - 1)
    return None


def _alternating_exponent(m: int) -> int:
    """Exponent of Alt(m) in closed form, without enumerating it.

    An element's order is the lcm of its cycle lengths, and a cycle of odd
    length is even while one of even length needs a second even cycle
    beside it; so the exponent is the lcm of the odd prime powers <= m and
    the largest power of 2 that is <= m - 2.
    """
    exp = 1
    for r in range(3, m + 1, 2):
        if is_prime_power(r):
            exp = math.lcm(exp, r)
    two = 1
    while 2 * two <= m - 2:
        two *= 2
    return math.lcm(exp, two)


@dataclass(frozen=True)
class KnownGroup:
    """A simple group the tool knows: its printed name, exact order,
    exponent and `make_group` descriptor. M11 and M12 are known by name and
    order only, with no builder, so their last two fields are None."""

    name: str
    order: int
    exponent: int | None = None
    descriptor: str | None = None


@functools.cache
def known_groups() -> dict:
    """The simple groups the tool knows, keyed by id, in naming precedence:
    Alt(m) for 5 <= m <= 20, then M11 and M12, then PSL(2,q) for
    4 <= q <= 1023. Built on first use."""
    table = {}
    for m in range(5, 21):
        gid = AltId(m)
        table[gid] = KnownGroup(str(gid), exact_order(gid), _alternating_exponent(m),
                                "alternating(%d)" % m)
    for index, order in ((1, 7920), (2, 95040)):
        gid = SporadicId(index)
        table[gid] = KnownGroup(gid.name, order)
    for q in admissible_q_values("A", 1023):
        if q >= 4:
            # PSL(2,q), q = p^f: element orders divide p, (q-1)/k or (q+1)/k
            # with k = gcd(2, q-1), and each of the three is attained
            k = math.gcd(2, q - 1)
            exp = math.lcm(factorize(q)[0][0], (q - 1) // k, (q + 1) // k)
            gid = psl2(q)
            table[gid] = KnownGroup("PSL(2,%d)" % q, exact_order(gid), exp, "psl2(%d)" % q)
    return table


@functools.cache
def witness_pool() -> tuple:
    """The entries the analyzer builds and tries as witnesses, in report
    order: Alt(5) to Alt(9), then PSL(2,q) for q = 4, 5, 7, 8, 9, 11."""
    table = known_groups()
    return tuple(table[gid] for gid in [*map(AltId, range(5, 10)),
                                        *map(psl2, (4, 5, 7, 8, 9, 11))])


def simple_name(order: int) -> str:
    """Name a nonabelian simple group by its order: the first known group
    of that order, or both groups of order 20160."""
    if order == 20160:
        return "Alt(8) or PSL(3,4)"
    for group in known_groups().values():
        if group.order == order:
            return group.name
    return "simple of order %d" % order


def law_length_lower_bound(gid, c_lower: float = Config.c_lower) -> int:
    """Shortest-law length lower bound, floor of the configured constant times
    q^a (Lie), sqrt(q) (Suzuki), or m (alternating); 1 for sporadics."""
    with mp.workdps(get_precision()):
        c = mp.mpf(c_lower)
        if isinstance(gid, AltId):
            return int(mp.floor(c * gid.m))
        if isinstance(gid, LieId):
            if gid.family == "2B2":
                return int(mp.floor(c * mp.sqrt(gid.q)))
            a = a_value(gid.family, gid.k).low
            return int(mp.floor(c * mp.mpf(gid.q) ** a))
        if isinstance(gid, SporadicId):
            return 1
    raise TypeError("not a simple group id: %r" % (gid,))


def candidates_for_law_length(length: int, c_lower: float = Config.c_lower) -> list:
    """Simple groups not excluded by the law-length lower bounds.

    Alternating groups up to length/c_lower, Lie entries whose lower bound is
    at most the length, and all 26 sporadic placeholders, in deterministic
    order: Alt ascending, families in table order with (k, q) lexicographic,
    sporadics last.
    """
    if length < 1:
        raise ValueError("law length must be positive")
    if c_lower <= 0:
        raise ValueError("c_lower must be positive")
    out = []
    m = 5
    while law_length_lower_bound(AltId(m), c_lower) <= length:
        out.append(AltId(m))
        m += 1
    # floor(c*q^a) and floor(c*sqrt(q)) never decrease as q grows, so each
    # (family, rank) walk stops at the first q whose bound exceeds the length;
    # a(X).low never decreases as the rank grows, so a family's walk stops
    # at the first rank whose least admissible q is already excluded
    for family in FAMILY_ORDER:
        if family in _FIXED_RANK:
            ranks = [_FIXED_RANK[family]]
        else:
            ranks = itertools.count(_MIN_RANK[family])
        for k in ranks:
            before = len(out)
            for q in _admissible_qs(family):
                gid = LieId(family, k, q)
                if law_length_lower_bound(gid, c_lower) > length:
                    break
                out.append(gid)
            if len(out) == before:
                break
    out.extend(SporadicId(i) for i in range(1, 27))
    return out


def catalog_table_rows(max_rank: int = 10) -> list:
    """One row per family and applicable rank: the two tables, merged."""
    rows = []
    for family in FAMILY_ORDER:
        if family in _FIXED_RANK:
            ranks = [_FIXED_RANK[family]]
        else:
            ranks = range(_MIN_RANK[family], max_rank + 1)
        for k in ranks:
            a = a_value(family, k)
            rows.append({
                "family": family, "k": k, "q": None,
                "a_low": a.low, "a_high": a.high,
                "b": b_value(family, k), "bound": None,
            })
    return rows


def catalog_table_json(max_rank: int = 10) -> str:
    return json.dumps(catalog_table_rows(max_rank), sort_keys=True, separators=(",", ":"))

