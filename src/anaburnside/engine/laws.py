"""Word laws: exhaustive and sampled checking, shortest laws, generation."""

import itertools
import math
import random
from dataclasses import dataclass

from ..config import Config
from ..errors import CapExceeded
from ..words import Word, evaluate, times_power
from . import _numpy as np
from .indexed import PermIndexedGroup, as_indexed
from .perm import PermGroup, invert_rows
from .structure import conjugacy_classes, is_simple, subgroup_closure

_FIRST_SPAN = 1 << 12
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
        rows = invert_rows(rows)
    result = np.broadcast_to(np.arange(deg, dtype=rows.dtype), (n, deg)).copy()
    return times_power(lambda x, y: np.take_along_axis(y, x, axis=1), result, rows, abs(e))


def is_law(word, G, mode="exhaustive", samples=256, seed=Config.seed,
           exhaust_cap=Config.exhaust_cap, cayley_cap=Config.cayley_cap):
    """Check whether a word evaluates to the identity on all assignments.

    Exhaustive mode indexes the group (order at most `cayley_cap`) and
    enumerates its |G|^rank assignments (at most `exhaust_cap`) in
    row-major order of the element indexing, in one loop that returns the
    first failing assignment as a witness. Each distinct exponent's power
    table is built once, over all elements. A word that is a power u^k of
    a block is evaluated as u, then raised to the k-th power by squaring
    under the same product step. A permutation group composes element
    rows, with no index lookup per syllable, and reports its witness as
    permutations; every other substrate multiplies indexes through its
    `products` and reports indexes. Sampled mode is a seeded spot check of
    `samples` random assignments.
    """
    if mode == "sampled":
        if samples < 1:
            raise ValueError("samples must be positive")
        return _is_law_sampled(word, G, samples, seed)
    if mode != "exhaustive":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    rank, n = word.rank, G.order()
    if n ** rank > exhaust_cap:
        raise CapExceeded("%d^%d assignments exceed exhaust_cap %d" % (n, rank, exhaust_cap))
    Gi = as_indexed(G, cap=cayley_cap)
    if isinstance(Gi, PermIndexedGroup):
        identity = np.arange(Gi.degree, dtype=Gi.rows.dtype)
        power = lambda e: _power_rows(Gi.rows, e)
        step = lambda state, x: np.take_along_axis(x, state, axis=1)
        element = Gi.perm_of
    else:
        identity = np.array(Gi.identity_index, dtype=np.intp)
        power, step, element = Gi.powers, Gi.products, int
    block, k = _root(word.syllables)
    powers = {e: power(e) for e in {e for _, e in block}}
    total = n ** rank
    for start, stop in _spans(total):
        cols = _assignment_columns(start, stop, n, rank)
        m = stop - start
        state = np.broadcast_to(identity, (m,) + identity.shape)
        for v, e in block:
            state = step(state, powers[e][cols[v - 1]])
        state = times_power(step, state, state, k - 1)
        bad = np.flatnonzero((state != identity).reshape(m, -1).any(axis=1))
        if len(bad):
            at = int(bad[0])
            witness = tuple(element(int(cols[v][at])) for v in range(rank))
            return LawVerdict(False, witness, "exhaustive", start + at + 1)
    return LawVerdict(True, None, "exhaustive", total)


def _root(syllables):
    """The shortest block u and the largest k with syllables == u * k."""
    n = len(syllables)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and syllables[p:] == syllables[:-p]:
            return syllables[:p], n // p
    return syllables, 1


def _spans(total):
    """Consecutive [start, stop) ranges covering 0..total. The first holds
    2^12 assignments and each next one twice the last, up to `_CHUNK`, so a
    refuted law stops within about twice its failure position."""
    start, size = 0, _FIRST_SPAN
    while start < total:
        stop = min(start + size, total)
        yield start, stop
        start, size = stop, min(2 * size, _CHUNK)


def _assignment_columns(start, stop, n, rank):
    idx = np.arange(start, stop, dtype=np.int64)
    cols = []
    for v in range(rank):
        stride = n ** (rank - 1 - v)
        cols.append((idx // stride) % n)
    return cols


def _is_law_sampled(word, G, samples, seed):
    if not isinstance(G, PermGroup):
        G = as_indexed(G)
    rng = random.Random(seed)
    ident = G.identity()
    for k in range(samples):
        assignment = tuple(G.random_element(rng) for _ in range(word.rank))
        if evaluate(word, assignment, G) != ident:
            return LawVerdict(False, assignment, "sampled", k + 1, seed=seed)
    return LawVerdict(True, None, "sampled", samples, seed=seed)


def group_exponent(G, cap=Config.cayley_cap):
    """Least common multiple of all element orders, by full enumeration."""
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
    return Word.make([((l >> 1) + 1, -1 if l & 1 else 1) for l in letters], rank=num_vars)


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
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if num_vars > 2:
        raise ValueError("word enumeration is supported for 1 or 2 variables")
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
    """Number of d-tuples whose entries generate the whole group.

    Generation is invariant under simultaneous conjugation, so the count is
    the sum over conjugacy classes C of |C| times the number of generating
    tuples whose first entry is C's least element: k(G)*n^(d-1) closures of
    at most n elements each, a work of k(G)*n^d refused past
    `_TUPLE_WORK_CAP`.
    """
    Gi = as_indexed(G)
    n = Gi.n
    if n ** d > exhaust_cap:
        raise CapExceeded("%d^%d tuples exceed exhaust_cap %d" % (n, d, exhaust_cap))
    if d == 1:
        return int(np.count_nonzero(Gi.orders() == n))
    classes = conjugacy_classes(Gi)
    if len(classes) * n ** d > _TUPLE_WORK_CAP:
        raise CapExceeded("%d classes times %d^%d closure elements exceed cap %d"
                          % (len(classes), n, d, _TUPLE_WORK_CAP))
    count = 0
    for cls in classes:
        count += len(cls) * sum(len(subgroup_closure(Gi, (cls[0],) + rest)) == n
                                for rest in itertools.product(range(n), repeat=d - 1))
    return count


def _generating_pair(Gi):
    for a in range(Gi.n):
        if a == Gi.identity_index:
            continue
        for b in range(a, Gi.n):
            if len(subgroup_closure(Gi, [a, b])) == Gi.n:
                return a, b
    raise ValueError("group is not generated by two elements")


def _spanning_levels(Gi, gens):
    """Breadth-first spanning tree of the Cayley graph from the identity, as
    levels (elements, their parents, which generator reaches them)."""
    seen = np.zeros(Gi.n, dtype=bool)
    seen[Gi.identity_index] = True
    frontier = np.array([Gi.identity_index], dtype=np.intp)
    levels = []
    while frontier.size:
        ys = np.concatenate([Gi.column(g, at=frontier) for g in gens])
        xs = np.tile(frontier, len(gens))
        which = np.repeat(np.arange(len(gens)), len(frontier))
        new = ~seen[ys]
        ys, first = np.unique(ys[new], return_index=True)
        xs, which = xs[new][first], which[new][first]
        seen[ys] = True
        levels.append((ys, xs, which))
        frontier = ys
    if not seen.all():
        raise RuntimeError("generating pair does not reach the whole group")
    return levels


def _automorphisms_among(Gi, gens, levels, images):
    """How many rows of `images` (candidate images of `gens`) extend to
    automorphisms. Each row's map grows along the spanning tree, all rows
    at once; it is an automorphism when it is a bijection and
    image(x*g) = image(x)*image(g) for every x and each generator g."""
    k, n = len(images), Gi.n
    maps = np.empty((k, n), dtype=np.intp)
    maps[:, Gi.identity_index] = Gi.identity_index
    for ys, xs, which in levels:
        maps[:, ys] = Gi.products(maps[:, xs].ravel(),
                                  images[:, which].ravel()).reshape(k, len(ys))
    ok = (np.sort(maps, axis=1) == np.arange(n)).all(axis=1)
    for j, g in enumerate(gens):
        moved = Gi.products(maps.ravel(), np.repeat(images[:, j], n)).reshape(k, n)
        ok &= (maps[:, Gi.column(g)] == moved).all(axis=1)
    return int(np.count_nonzero(ok))


def automorphism_count(G):
    """|Aut(G)| by brute force over candidate images of a generating pair
    (a, b): the pairs (a2, b2) with the orders of a, b and ab, in chunks."""
    Gi = as_indexed(G)
    n = Gi.n
    if n == 1:
        return 1
    orders = Gi.orders()
    if (orders == n).any():
        # cyclic: automorphisms send a generator to any generator
        return int(np.count_nonzero(orders == n))
    gens = _generating_pair(Gi)
    a2 = np.flatnonzero(orders == orders[gens[0]])
    b2 = np.flatnonzero(orders == orders[gens[1]])
    a2, b2 = np.repeat(a2, len(b2)), np.tile(b2, len(a2))
    keep = orders[Gi.products(a2, b2)] == orders[Gi.mul(*gens)]
    images = np.stack([a2[keep], b2[keep]], axis=1)
    levels = _spanning_levels(Gi, gens)
    step = max(1, _CHUNK // n)
    return sum(_automorphisms_among(Gi, gens, levels, images[i:i + step])
               for i in range(0, len(images), step))


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
