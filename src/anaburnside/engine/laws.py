"""Word laws: exhaustive and sampled checking, shortest laws, generation."""

import math
import random
from dataclasses import dataclass

import numpy as np

from ..config import Config
from ..errors import CapExceeded
from ..words import Word, evaluate
from .indexed import PermIndexedGroup, as_indexed
from .perm import PermGroup
from .structure import is_simple, subgroup_closure

_CHUNK = 1 << 18
_TUPLE_WORK_CAP = 20_000_000


@dataclass
class LawVerdict:
    """Outcome of a law check; sampled verdicts are only spot checks."""

    holds: bool
    witness: tuple
    mode: str
    checked: int
    seed: int = None

    def __bool__(self):
        return self.holds


def _power_rows(rows, e):
    """Rows of each permutation raised to the e-th power."""
    n, deg = rows.shape
    if e < 0:
        rows = np.argsort(rows, axis=1).astype(rows.dtype)
        e = -e
    result = np.broadcast_to(np.arange(deg, dtype=rows.dtype), (n, deg)).copy()
    base = rows.copy()
    while e:
        if e & 1:
            result = np.take_along_axis(base, result, axis=1)
        e >>= 1
        if e:
            base = np.take_along_axis(base, base, axis=1)
    return result


def _power_indexes(G, e):
    """Index map i -> i**e, by square-and-multiply over `products`."""
    base = np.arange(G.n) if e >= 0 else G.inverses()
    result = np.full(G.n, G.identity_index, dtype=np.intp)
    e = abs(e)
    while e:
        if e & 1:
            result = G.products(result, base)
        e >>= 1
        if e:
            base = G.products(base, base)
    return result


def is_law(word, G, mode="exhaustive", samples=256, seed=Config.seed,
           exhaust_cap=Config.exhaust_cap, cayley_cap=Config.cayley_cap):
    """Check whether a word evaluates to the identity on all assignments.

    Exhaustive mode enumerates |G|^rank assignments (at most `exhaust_cap`,
    on a group of order at most `cayley_cap` once indexed) and returns a
    concrete witness on failure; assignments run in row-major order of the
    element indexing. A permutation group composes its element rows
    directly; every other substrate goes through its `products`. Sampled
    mode is a seeded spot check.
    """
    if mode == "sampled":
        return _is_law_sampled(word, G, samples, seed)
    if mode != "exhaustive":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    rank, n = word.rank, G.order()
    if n ** rank > exhaust_cap:
        raise CapExceeded("%d^%d assignments exceed cap %d" % (n, rank, exhaust_cap))
    Gi = as_indexed(G, cap=cayley_cap)
    if isinstance(Gi, PermIndexedGroup):
        return _is_law_perm(word, Gi)
    return _is_law_indexed(word, Gi)


def _assignment_columns(total, start, stop, n, rank):
    idx = np.arange(start, stop, dtype=np.int64)
    cols = []
    for v in range(rank):
        stride = n ** (rank - 1 - v)
        cols.append((idx // stride) % n)
    return cols


def _is_law_perm(word, Gi):
    rows = Gi.rows
    n, deg = rows.shape
    rank = word.rank
    powers = {}
    for v, e in word.syllables:
        if (v, e) not in powers:
            powers[(v, e)] = _power_rows(rows, e)
    total = n ** rank
    identity = np.arange(deg, dtype=rows.dtype)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        cols = _assignment_columns(total, start, stop, n, rank)
        m = stop - start
        state = np.broadcast_to(identity, (m, deg)).copy()
        for v, e in word.syllables:
            sel = powers[(v, e)][cols[v - 1]]
            state = np.take_along_axis(sel, state, axis=1)
        bad = np.nonzero((state != identity).any(axis=1))[0]
        if len(bad):
            at = int(bad[0])
            witness = tuple(Gi.perm_of(int(cols[v][at])) for v in range(rank))
            return LawVerdict(False, witness, "exhaustive", start + at + 1)
    return LawVerdict(True, None, "exhaustive", total)


def _is_law_indexed(word, Gi):
    n = Gi.n
    rank = word.rank
    powers = {}
    for v, e in word.syllables:
        if (v, e) not in powers:
            powers[(v, e)] = _power_indexes(Gi, e)
    total = n ** rank
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        cols = _assignment_columns(total, start, stop, n, rank)
        state = np.full(stop - start, Gi.identity_index, dtype=np.intp)
        for v, e in word.syllables:
            state = Gi.products(state, powers[(v, e)][cols[v - 1]])
        bad = np.nonzero(state != Gi.identity_index)[0]
        if len(bad):
            at = int(bad[0])
            witness = tuple(int(cols[v][at]) for v in range(rank))
            return LawVerdict(False, witness, "exhaustive", start + at + 1)
    return LawVerdict(True, None, "exhaustive", total)


def _is_law_sampled(word, G, samples, seed):
    rng = random.Random(seed)
    rank = word.rank
    if isinstance(G, PermGroup):
        ident = G.identity()
        for k in range(samples):
            assignment = tuple(G.random_element(rng) for _ in range(rank))
            if evaluate(word, assignment, G) != ident:
                return LawVerdict(False, assignment, "sampled", k + 1, seed=seed)
        return LawVerdict(True, None, "sampled", samples, seed=seed)
    Gi = as_indexed(G)
    for k in range(samples):
        assignment = tuple(rng.randrange(Gi.n) for _ in range(rank))
        if evaluate(word, assignment, Gi) != Gi.identity_index:
            return LawVerdict(False, assignment, "sampled", k + 1, seed=seed)
    return LawVerdict(True, None, "sampled", samples, seed=seed)


def group_exponent(G, cap=1_000_000):
    """Least common multiple of all element orders, by full enumeration."""
    n = G.order()
    if n > cap:
        raise CapExceeded("order %d exceeds exponent enumeration cap %d" % (n, cap))
    return math.lcm(*set(as_indexed(G, cap=cap).orders().tolist()))


# ---------------------------------------------------------------------------
# shortest laws

@dataclass
class ShortestLawResult:
    found: Word
    length: int
    certificate: str
    words_checked: int


def _letter_inverse(letter):
    return letter ^ 1


def _canonical_cyclic(letters):
    """Least rotation among the word's rotations and its inverse's."""
    best = None
    k = len(letters)
    inv = tuple(_letter_inverse(l) for l in reversed(letters))
    for base in (letters, inv):
        for r in range(k):
            rot = base[r:] + base[:r]
            if best is None or rot < best:
                best = rot
    return best


def _cyclic_words(length, num_vars):
    """Cyclically reduced words over num_vars letters, one per equivalence
    class under rotation and inversion, in lexicographic order."""
    alphabet = range(2 * num_vars)
    out = []

    def extend(prefix):
        if len(prefix) == length:
            if length > 1 and prefix[0] == _letter_inverse(prefix[-1]):
                return
            tup = tuple(prefix)
            if _canonical_cyclic(tup) == tup:
                out.append(tup)
            return
        for letter in alphabet:
            if prefix and letter == _letter_inverse(prefix[-1]):
                continue
            prefix.append(letter)
            extend(prefix)
            prefix.pop()

    extend([])
    return out


def _word_from_letters(letters, num_vars):
    syllables = []
    for letter in letters:
        var = (letter >> 1) + 1
        e = -1 if letter & 1 else 1
        if syllables and syllables[-1][0] == var:
            syllables[-1] = (var, syllables[-1][1] + e)
        else:
            syllables.append((var, e))
    syllables = [(v, e) for v, e in syllables if e]
    return Word.make(tuple(syllables), rank=num_vars)


def shortest_law_search(G, max_len, num_vars, seed=Config.seed,
                        exhaust_cap=Config.exhaust_cap, cayley_cap=Config.cayley_cap):
    """Find the shortest nontrivial law of the group, up to a length bound.

    Enumerates cyclically reduced words by length, deduplicated under
    rotation and inversion only; each candidate passing a seeded spot
    check is settled by a full exhaustive check. Returns the first law in
    enumeration order or a none-up-to certificate.
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if num_vars > 2:
        raise CapExceeded("word enumeration is supported for 1 or 2 variables")
    checked = 0
    for length in range(1, max_len + 1):
        for letters in _cyclic_words(length, num_vars):
            word = _word_from_letters(letters, num_vars)
            if word.is_empty():
                continue
            checked += 1
            quick = is_law(word, G, mode="sampled", samples=16, seed=seed)
            if not quick.holds:
                continue
            verdict = is_law(word, G, exhaust_cap=exhaust_cap, cayley_cap=cayley_cap)
            if verdict.holds:
                return ShortestLawResult(word, length, "found", checked)
    return ShortestLawResult(None, None, "none_up_to(%d)" % max_len, checked)


# ---------------------------------------------------------------------------
# generating tuples and automorphisms

def count_generating_tuples(G, d, exhaust_cap=Config.exhaust_cap):
    """Number of d-tuples whose entries generate the whole group."""
    Gi = as_indexed(G)
    n = Gi.n
    if n ** d > exhaust_cap:
        raise CapExceeded("%d^%d tuples exceed cap" % (n, d))
    if n ** d * n > _TUPLE_WORK_CAP:
        raise CapExceeded("%d^%d closure checks are impractical" % (n, d))
    if d == 1:
        return int(np.count_nonzero(Gi.orders() == n))
    count = 0
    tup = [0] * d

    def rec(pos):
        nonlocal count
        if pos == d:
            if len(subgroup_closure(Gi, tup)) == n:
                count += 1
            return
        for i in range(n):
            tup[pos] = i
            rec(pos + 1)

    rec(0)
    return count


def _generating_pair(Gi):
    for a in range(Gi.n):
        if a == Gi.identity_index:
            continue
        for b in range(a, Gi.n):
            if len(subgroup_closure(Gi, [a, b])) == Gi.n:
                return a, b
    raise ValueError("group is not generated by two elements")


def automorphism_count(G):
    """|Aut(G)| by brute force over candidate images of a generating pair."""
    Gi = as_indexed(G)
    n = Gi.n
    if n == 1:
        return 1
    orders = Gi.orders().tolist()
    if n in orders:
        # cyclic: automorphisms send a generator to any generator
        return orders.count(n)
    a, b = _generating_pair(Gi)
    oa, ob, oab = orders[a], orders[b], orders[Gi.mul(a, b)]
    # breadth-first spanning data: each element as (previous, generator)
    parent = {Gi.identity_index: None}
    order_bfs = [Gi.identity_index]
    frontier = [Gi.identity_index]
    while frontier:
        new = []
        for x in frontier:
            for g in (a, b):
                y = Gi.mul(x, g)
                if y not in parent:
                    parent[y] = (x, g)
                    order_bfs.append(y)
                    new.append(y)
        frontier = new
    if len(order_bfs) != n:
        raise RuntimeError("generating pair does not reach the whole group")
    count = 0
    for a2 in range(n):
        if orders[a2] != oa:
            continue
        for b2 in range(n):
            if orders[b2] != ob or orders[Gi.mul(a2, b2)] != oab:
                continue
            image = {Gi.identity_index: Gi.identity_index}
            gmap = {a: a2, b: b2}
            ok = True
            for y in order_bfs[1:]:
                x, g = parent[y]
                image[y] = Gi.mul(image[x], gmap[g])
            if len(set(image.values())) != n:
                continue
            for x in order_bfs:
                for g in (a, b):
                    if image[Gi.mul(x, g)] != Gi.mul(image[x], gmap[g]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def max_d_generated_power(G, d):
    """Largest k with G^k still d-generated, for simple G: tuples / |Aut|."""
    if not is_simple(G):
        raise ValueError("power counting requires a simple group")
    tuples = count_generating_tuples(G, d)
    aut = automorphism_count(G)
    if tuples % aut:
        raise RuntimeError("generating tuple count %d is not divisible by |Aut| = %d"
                           % (tuples, aut))
    return tuples // aut
