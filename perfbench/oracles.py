"""Expected values computed apart from the package under test.

Nothing here imports anaburnside. Exponents come from cycle types and the
PSL(2,q) element-order formula, verdicts from the number theory the
analyzer's criteria rest on, closed bounds from plain mpmath at twice the
package's default precision, and composition data from how each group is
built out of known factors.
"""

import math
from functools import reduce

from mpmath import mp

ORACLE_DPS = 120
INDEX_DIGITS = 12


def lcm(*values):
    return reduce(math.lcm, values, 1)


def prime_factors(n):
    """Prime factorization of n as {p: e}, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def partitions(m, largest=None):
    """Partitions of m as non-increasing lists."""
    if largest is None:
        largest = m
    if m == 0:
        yield []
        return
    for part in range(min(m, largest), 0, -1):
        for rest in partitions(m - part, part):
            yield [part] + rest


def alt_exponent(m):
    """lcm of cycle-type orders over even permutations of m points."""
    exp = 1
    for parts in partitions(m):
        if (m - len(parts)) % 2 == 0:
            exp = math.lcm(exp, lcm(*parts))
    return exp


def sym_exponent(m):
    return lcm(*range(1, m + 1))


def psl2_exponent(q):
    """lcm(p, (q-1)/k, (q+1)/k) with k = gcd(2, q-1)."""
    p = min(prime_factors(q))
    k = math.gcd(2, q - 1)
    return lcm(p, (q - 1) // k, (q + 1) // k)


def alt_order(m):
    return math.factorial(m) // 2


def psl2_order(q):
    return q * (q * q - 1) // math.gcd(2, q - 1)


# The analyzer's desk-scale witness pool, in report order.
POOL = tuple([("Alt(%d)" % m, alt_exponent(m), alt_order(m)) for m in range(5, 10)]
             + [("PSL(2,%d)" % q, psl2_exponent(q), psl2_order(q))
                for q in (4, 5, 7, 8, 9, 11)])

FT = "TrivialByFeitThompson"
BURNSIDE = "TrivialByBurnside"
WITNESS = "NontrivialWitness"
FACTORS = "TrivialByFactors"
UNKNOWN = "Unknown"


def periodic_verdict(n, cayley_cap):
    """(verdict, witnesses) for the power law x^n, n >= 1.

    Odd n: Feit-Thompson. n = 2^a p^b: Burnside's two-prime theorem.
    Otherwise the witnesses are the pool groups whose exponent divides n
    and whose order fits under the indexing cap; none means Unknown.
    Witnesses are (name, exponent, order) with order the expected number
    of rank-1 assignments checked.
    """
    if n % 2:
        return FT, ()
    odd_primes = [p for p in prime_factors(n) if p != 2]
    if len(odd_primes) <= 1:
        return BURNSIDE, ()
    witnesses = tuple(w for w in POOL if n % w[1] == 0 and w[2] <= cayley_cap)
    return (WITNESS if witnesses else UNKNOWN), witnesses


def exponent_sums(syllables, rank):
    totals = [0] * rank
    for gen, exp in syllables:
        totals[gen - 1] += exp
    return totals


def closed_bound(length, d, c):
    """E_2k(2*c*d*L*ln L) with k = L, canonicalized by iterated logs.

    Returns (height, index) with the index in [0, 1) at ORACLE_DPS digits.
    """
    length = max(length, 2)
    with mp.workdps(ORACLE_DPS):
        x = 2 * mp.mpf(c) * d * length * mp.log(length)
        height = 2 * length
        while x >= 1:
            x = mp.log(x)
            height += 1
        return height, x


def index_matches(expected, value):
    """True when an index agrees with the oracle's.

    `value` is either the package's index (compared to INDEX_DIGITS
    decimals) or the text it prints inside E_h(...), which is compared to
    one unit in its last printed digit.
    """
    with mp.workdps(ORACLE_DPS):
        if not isinstance(value, str):
            return abs(mp.mpf(value) - expected) <= mp.mpf(10) ** -INDEX_DIGITS
        mantissa, _, exp10 = value.lower().partition("e")
        decimals = len(mantissa.partition(".")[2])
        ulp = mp.mpf(10) ** (int(exp10 or 0) - decimals)
        return abs(mp.mpf(value) - expected) <= ulp


def parse_rendered(text):
    """Split "E_63(0.643336)" (with optional tail) into (63, "0.643336")."""
    head, _, rest = text.partition("(")
    return int(head[2:]), rest.split(")")[0]


# ---------------------------------------------------------------------------
# groups built from known factors
#
# A group is a tree: ("alt", m), ("sym", m), ("cyc", n), ("psl2", q),
# ("direct", a, b, ...) or ("wreath", inner, outer) where outer acts on
# `degree(outer)` points.

def descriptor(g):
    kind = g[0]
    if kind == "alt":
        return "alternating(%d)" % g[1]
    if kind == "sym":
        return "symmetric(%d)" % g[1]
    if kind == "cyc":
        return "cyclic(%d)" % g[1]
    if kind == "psl2":
        return "psl2(%d)" % g[1]
    if kind == "direct":
        return "direct_product(%s)" % ",".join(descriptor(h) for h in g[1:])
    return "wreath(%s,%s)" % (descriptor(g[1]), descriptor(g[2]))


def degree(g):
    kind = g[0]
    if kind in ("alt", "sym", "cyc"):
        return g[1]
    if kind == "psl2":
        return g[1] + 1
    if kind == "direct":
        return sum(degree(h) for h in g[1:])
    return degree(g[1]) * degree(g[2])


def order(g):
    return math.prod(f[1] for f in composition(g))


def composition(g):
    """Sorted multiset of composition factors as (kind, order) pairs."""
    kind = g[0]
    if kind == "cyc":
        out = [("cyclic", p) for p, e in prime_factors(g[1]).items() for _ in range(e)]
    elif kind == "psl2":
        out = [("nonabelian", psl2_order(g[1]))]
    elif kind in ("alt", "sym"):
        m = g[1]
        if m >= 5:
            out = [("nonabelian", alt_order(m))]
        else:
            # Alt(4) = V_4 . C_3, Alt(3) = C_3
            out = {1: [], 2: [], 3: [("cyclic", 3)],
                   4: [("cyclic", 2), ("cyclic", 2), ("cyclic", 3)]}[m]
        if kind == "sym" and m >= 2:
            out = out + [("cyclic", 2)]
    elif kind == "direct":
        out = [f for h in g[1:] for f in composition(h)]
    else:
        out = composition(g[1]) * degree(g[2]) + composition(g[2])
    return sorted(out)


def nonsolvable_length(g):
    """lambda from the construction: simple nonabelian 1, solvable 0, direct
    products take the maximum, wreath products add (exact for the groups
    the workload builds, e.g. lambda(Alt(5) wr Alt(5)) = 2)."""
    kind = g[0]
    if kind == "direct":
        return max(nonsolvable_length(h) for h in g[1:])
    if kind == "wreath":
        return nonsolvable_length(g[1]) + nonsolvable_length(g[2])
    return 1 if any(k == "nonabelian" for k, _ in composition(g)) else 0


def exponent(g):
    """Closed-form exponent, or None for wreath products."""
    kind = g[0]
    if kind == "alt":
        return alt_exponent(g[1])
    if kind == "sym":
        return sym_exponent(g[1])
    if kind == "cyc":
        return g[1]
    if kind == "psl2":
        return psl2_exponent(g[1])
    if kind == "direct":
        parts = [exponent(h) for h in g[1:]]
        return None if None in parts else lcm(*parts)
    return None


def factor_name(kind, order_):
    """The package's naming convention for a factor, from its order."""
    if kind == "cyclic":
        return "C_%d" % order_
    for m in range(5, 13):
        if alt_order(m) == order_:
            return "Alt(%d)" % m
    for q in range(4, 64):
        if len(prime_factors(q)) == 1 and psl2_order(q) == order_:
            return "PSL(2,%d)" % q
    raise ValueError("no name for a simple group of order %d" % order_)


# ---------------------------------------------------------------------------
# permutation groups by the benchmark's own composition

def compose(a, b):
    """Left-to-right product: apply a, then b."""
    return tuple(b[p] for p in a)


def cycle_perm(n, cycle):
    imgs = list(range(n))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        imgs[a] = b
    return tuple(imgs)


def alternating_gens(m):
    cyc = tuple(range(m)) if m % 2 else tuple(range(1, m))
    return [cycle_perm(m, (0, 1, 2)), cycle_perm(m, cyc)]


def enumerate_group(gens):
    """All elements reachable from the identity, in lexicographic order."""
    n = len(gens[0])
    start = tuple(range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def cayley_table(elements, relabel=None):
    """Multiplication table with table[i][j] the index of e_i * e_j.

    `relabel` maps the position in `elements` to the index written out; by
    default the lexicographic position is the index.
    """
    pos = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    lab = relabel if relabel is not None else list(range(n))
    table = [[0] * n for _ in range(n)]
    for i, a in enumerate(elements):
        row = table[lab[i]]
        for j, b in enumerate(elements):
            row[lab[j]] = lab[pos[compose(a, b)]]
    return table
