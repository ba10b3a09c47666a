"""Element-indexed group substrates.

These give every element an index 0..n-1, the representation used for
exhaustive normal-structure work. A dense n x n table is only materialized
for small orders; larger groups keep a compact per-element representation
with the same interface.

Each substrate defines one arithmetic method, `products(xs, ys)`: the
paired right products xs[i]*ys[i] of two index arrays, where a scalar `ys`
broadcasts. It also defines `_compute_inverses`, the array i -> i^-1, which
is computed once and kept. Everything else is derived from these two in
`IndexedGroup`: scalar `mul` and `inv`, the right-multiplication column
`column(j)` (restricted to the indexes `at` when given), `conjugates`, and
element orders from one power loop. Closures, conjugacy classes and coset
labelling run as frontier-array operations over these. Columns are computed
when asked for and never cached per element.
"""

import numpy as np

from ..config import Config
from ..errors import CapExceeded
from .perm import Permutation, PermGroup, row_keys

DENSE_CAP = 2048


def _index_array(indices):
    """Int array of the given element indexes (any iterable)."""
    if isinstance(indices, np.ndarray):
        return indices.astype(np.intp)
    return np.fromiter(indices, dtype=np.intp)


def _distinct(a):
    """Sorted distinct values of an int array (plain `np.unique` would import
    numpy.ma on first use)."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def least_in_orbits(n, maps):
    """Least element of each orbit of the permutations `maps` of 0..n-1.

    Each pass hooks, across every edge i -> m[i], the label of either end to
    the smaller label of the two, then follows labels to their fixed points
    (pointer jumping). Labels stay elements of their orbit and a pass that
    changes nothing leaves them constant on orbits, so the fixed point is the
    least. The minimum spreads both ways along a map, so a long cycle takes a
    few passes, not one per element.
    """
    least = np.arange(n)
    while maps:
        before = least.copy()
        for m in maps:
            a, b = least.copy(), least[m]
            np.minimum.at(least, a, b)
            np.minimum.at(least, b, a)
        jumped = least[least]
        while not np.array_equal(jumped, least):
            least, jumped = jumped, jumped[jumped]
        if np.array_equal(least, before):
            break
    return least


class Closure:
    """The subgroup generated by a growing list of elements, as a mask.

    It grows by breadth-first right products: each level multiplies the
    frontier by every generator through `column(g, at=frontier)`. A
    generator already inside adds nothing and is not kept. With a cap the
    growth stops, and `add` returns False, once it adds elements past the cap.
    """

    def __init__(self, G, cap=None):
        self.G = G
        self.cap = cap
        self.mask = np.zeros(G.n, dtype=bool)
        self.mask[G.identity_index] = True
        self.size = 1
        self.gens = []
        self.exceeded = False

    def add(self, g):
        if self.exceeded:
            return False
        if self.mask[g]:
            return True
        self.gens.append(g)
        # the old elements are closed under the old generators
        return self._spread(np.flatnonzero(self.mask), [g])

    def _spread(self, frontier, gens):
        G, mask = self.G, self.mask
        while frontier.size:
            found = [G.column(g, at=frontier) for g in gens]
            cand = found[0] if len(found) == 1 else np.concatenate(found)
            cand = _distinct(cand[~mask[cand]])
            if not cand.size:
                break
            mask[cand] = True
            self.size += cand.size
            if self.cap is not None and self.size > self.cap:
                self.exceeded = True
                return False
            frontier, gens = cand, self.gens
        return True


class IndexedGroup:
    """Common interface: elements are integers 0..n-1."""

    n = 0
    identity_index = 0
    generator_indices = ()
    _inverse_array = None

    def products(self, xs, ys):
        """Right products xs[i]*ys[i] of two index arrays of one length, as
        an index array. A scalar `ys` broadcasts; scalars for both give a
        scalar."""
        raise NotImplementedError

    def _compute_inverses(self):
        raise NotImplementedError

    def mul(self, i, j):
        return int(self.products(i, j))

    def inv(self, i):
        return int(self.inverses()[i])

    def column(self, j, at=None):
        """Right products i*j for every i (or every i in `at`), as an array."""
        xs = np.arange(self.n) if at is None else np.asarray(at, dtype=np.intp)
        return self.products(xs, j)

    def inverses(self):
        """The array i -> i^-1, computed once."""
        if self._inverse_array is None:
            self._inverse_array = self._compute_inverses()
        return self._inverse_array

    def conjugates(self, xs, g):
        """g^-1 x g for every x in the index array `xs`."""
        inv = self.inverses()
        return self.products(inv[self.products(inv[xs], g)], g)

    def orders(self, xs=None):
        """Order of each element of the index array `xs` (default: every
        element), by one power loop x, x^2, ... over the elements whose
        power is not yet the identity."""
        xs = np.arange(self.n) if xs is None else np.asarray(xs, dtype=np.intp)
        e = self.identity_index
        out = np.ones(len(xs), dtype=np.int64)
        alive = np.flatnonzero(xs != e)
        power = xs[alive]
        k = 1
        while alive.size:
            k += 1
            if k > self.n:
                raise RuntimeError("order computation exceeded group order")
            power = self.products(power, xs[alive])
            done = power == e
            out[alive[done]] = k
            alive, power = alive[~done], power[~done]
        return out

    def order_of(self, i):
        return int(self.orders([i])[0])

    # Handle protocol shared with PermGroup, used by word evaluation.
    def identity(self):
        return self.identity_index

    def contains(self, x):
        return isinstance(x, (int, np.integer)) and 0 <= x < self.n

    def order(self):
        return self.n

    def elements(self):
        return range(self.n)

    def label(self, i):
        return str(i)

    def _find_generators(self):
        """Greedy generating set by ascending element index."""
        closure = Closure(self)
        while closure.size < self.n:
            closure.add(int(np.argmin(closure.mask)))
        return tuple(closure.gens)


class TableGroup(IndexedGroup):
    """Explicit multiplication table, validated at construction."""

    def __init__(self, table, cap=Config.cayley_cap):
        n = len(table)
        if n < 1:
            raise ValueError("empty table")
        if n > cap:
            raise CapExceeded("order %d exceeds cap %d" % (n, cap))
        arr = np.asarray(table, dtype=np.int64)
        if arr.shape != (n, n) or arr.min() < 0 or arr.max() >= n:
            raise ValueError("table must be n x n with entries in 0..n-1")
        full = np.arange(n)
        in_row = np.zeros((n, n), dtype=bool)
        in_row[full[:, None], arr] = True
        in_col = np.zeros((n, n), dtype=bool)
        in_col[arr, full] = True
        bad = np.flatnonzero(~(in_row.all(axis=1) & in_col.all(axis=0)))
        if bad.size:
            raise ValueError("row/column %d is not a permutation" % bad[0])
        self.n = n
        self.table = arr.astype(np.intp)
        ident = np.flatnonzero((arr == full).all(axis=1))
        if len(ident) != 1:
            raise ValueError("table has no two-sided identity")
        e = self.identity_index = int(ident[0])
        # each row is a permutation, so it holds the identity exactly once
        inv = np.argmax(arr == e, axis=1)
        bad = np.flatnonzero(arr[inv, full] != e)
        if bad.size:
            raise ValueError("element %d has no two-sided inverse" % bad[0])
        self._inverse_array = inv.astype(np.intp)
        self.generator_indices = self._find_generators()
        self._check_associativity()

    def _check_associativity(self):
        """Light's test: (x*a)*y = x*(a*y) for all x, y and each generator a.
        The a passing it are closed under products, as (x*ab)*y = xa*(b*y) =
        x*(ab*y), and every element is a right product of generators."""
        t = self.table
        for a in self.generator_indices:
            bad = np.argwhere(t[t[:, a]] != t[:, t[a]])
            if bad.size:
                x, y = bad[0]
                raise ValueError("table not associative at (%d,%d,%d)" % (x, a, y))

    def products(self, xs, ys):
        return self.table[xs, ys]


class CyclicGroup(IndexedGroup):
    """The integers mod n under addition, with generator 1: the indexes of
    the Cayley table (i + j) % n, without the table."""

    def __init__(self, n, cap=Config.cayley_cap):
        if n < 1:
            raise ValueError("order must be at least 1")
        if n > cap:
            raise CapExceeded("order %d exceeds cap %d" % (n, cap))
        self.n = n
        self.generator_indices = (1,) if n > 1 else ()

    def products(self, xs, ys):
        return (xs + ys) % self.n

    def _compute_inverses(self):
        return -np.arange(self.n) % self.n


class PermIndexedGroup(IndexedGroup):
    """The rows of `PermGroup.element_rows`, indexed in their lexicographic
    order; a lookup is one `searchsorted` on the rows' bytes."""

    def __init__(self, group, cap=Config.cayley_cap):
        n = group.order()
        if n > cap:
            raise CapExceeded("order %d exceeds cap %d" % (n, cap))
        self.n = n
        self.degree = group.degree
        self.rows = group.element_rows(cap=n)
        self._sorted_keys = row_keys(self.rows)
        self.identity_index = 0
        self.generator_indices = tuple(self.index_of(g) for g in group.generators)

    def _lookup(self, rows):
        """Indexes of rows known to be group elements (or the index of one)."""
        return self._sorted_keys.searchsorted(row_keys(rows))

    def index_of_rows(self, rows):
        """Indexes of the given image rows; KeyError if one is not an element."""
        rows = np.asarray(rows, dtype=self.rows.dtype)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            raise KeyError("rows of degree %d expected" % self.degree)
        pos = np.minimum(self._lookup(rows), self.n - 1)
        missing = np.flatnonzero((self.rows[pos] != rows).any(axis=1))
        if missing.size:
            raise KeyError(tuple(int(p) for p in rows[missing[0]]))
        return pos

    def index_of(self, perm):
        return int(self.index_of_rows([perm.images])[0])

    def index_of_row(self, row):
        return int(self.index_of_rows([row])[0])

    def perm_of(self, i):
        return Permutation(int(p) for p in self.rows[i])

    def products(self, xs, ys):
        # row i*j is row j composed after row i
        if getattr(ys, "ndim", 0) == 0:
            return self._lookup(self.rows[ys][self.rows[xs]])
        return self._lookup(np.take_along_axis(self.rows[ys], self.rows[xs], axis=1))

    def _compute_inverses(self):
        return self._lookup(np.argsort(self.rows, axis=1).astype(self.rows.dtype))

    def label(self, i):
        return repr(self.perm_of(i))


class SubgroupView(IndexedGroup):
    """A subgroup presented with its own local element indexes."""

    def __init__(self, parent, global_indices, generator_globals=()):
        self.parent = parent
        self.globals = np.sort(_index_array(global_indices))
        self.n = len(self.globals)
        self._local = np.full(parent.n, -1, dtype=np.intp)
        self._local[self.globals] = np.arange(self.n)
        self.identity_index = self.to_local(parent.identity_index)
        gens = [self.to_local(g) for g in generator_globals if g != parent.identity_index]
        self.generator_indices = tuple(gens) or self._find_generators()

    def to_local(self, g):
        """Local index of a parent element, or array of them; KeyError outside."""
        i = self._local[g]
        if np.any(i < 0):
            raise KeyError(g)
        return i if isinstance(i, np.ndarray) else int(i)

    def products(self, xs, ys):
        return self._local[self.parent.products(self.globals[xs], self.globals[ys])]

    def _compute_inverses(self):
        return self._local[self.parent.inverses()[self.globals]]

    def label(self, i):
        return self.parent.label(int(self.globals[i]))


class QuotientGroup(IndexedGroup):
    """Quotient by a normal subgroup, elements labeled by coset of min index.

    Coset ids follow the cosets' least elements in ascending order, and
    each coset's representative is its least element.
    """

    def __init__(self, parent, normal_indices):
        normal = _distinct(_index_array(normal_indices))
        e = parent.identity_index
        in_normal = np.zeros(parent.n, dtype=bool)
        in_normal[normal] = True
        if not in_normal[e]:
            raise ValueError("normal subgroup must contain the identity")
        if parent.order() % len(normal):
            raise ValueError("subgroup size does not divide the group order")
        self.parent = parent
        # greedy generators of the subgroup, by ascending index
        closure = Closure(parent, cap=len(normal))
        while closure.size < len(normal):
            closure.add(int(normal[np.argmin(closure.mask[normal])]))
            if (closure.mask & ~in_normal).any():
                raise ValueError("indices are not closed under multiplication")
        # least element of each coset iN (= Ni when N is normal)
        least = least_in_orbits(parent.n, [parent.column(t) for t in closure.gens])
        reps, labels = np.unique(least, return_inverse=True)
        self.labels = labels.astype(np.intp)
        self.reps = reps.astype(np.intp)
        self.n = len(reps)
        # Conjugation-invariance under a generating set implies normality.
        for g in parent.generator_indices:
            if not in_normal[parent.conjugates(normal, g)].all():
                raise ValueError("subgroup is not normal")
        self.identity_index = int(self.labels[e])
        self.generator_indices = tuple(sorted(
            {int(self.labels[g]) for g in parent.generator_indices}
            - {self.identity_index})) or self._find_generators()

    def products(self, xs, ys):
        return self.labels[self.parent.products(self.reps[xs], self.reps[ys])]

    def _compute_inverses(self):
        return self.labels[self.parent.inverses()[self.reps]]

    def coset_of(self, parent_index):
        return int(self.labels[parent_index])

    def preimage(self, coset_ids):
        wanted = np.fromiter(coset_ids, dtype=np.intp)
        return frozenset(np.flatnonzero(np.isin(self.labels, wanted)).tolist())

    def label(self, i):
        return "[%s]" % self.parent.label(int(self.reps[i]))


class PairGroup(IndexedGroup):
    """Semidirect product N x| H; action(h, n) applies the H-part on the left.

    Multiplication: (n1, h1)(n2, h2) = (n1 * action(h1, n2), h1 * h2).
    Element index is h * N.n + n. A trivial action gives the direct product.
    The action is read once, at construction, into the table
    A[h, x] = action(h, x); without an action A is a broadcast identity.
    `action` itself is kept as given, None for the direct product.
    """

    def __init__(self, left, right, action=None):
        if left.n * right.n > Config.cayley_cap:
            raise CapExceeded("product order %d exceeds cap" % (left.n * right.n))
        self.left, self.right = left, right
        self.action = action
        self.n = left.n * right.n
        self.identity_index = right.identity_index * left.n + left.identity_index
        gens = [right.identity_index * left.n + g for g in left.generator_indices]
        gens += [h * left.n + left.identity_index for h in right.generator_indices]
        self.generator_indices = tuple(gens)
        if action is None:
            self._acted = np.broadcast_to(np.arange(left.n), (right.n, left.n))
        else:
            self._acted = np.array([[action(h, x) for x in range(left.n)]
                                    for h in range(right.n)], dtype=np.intp)
            self._check_action()

    def _check_action(self):
        """Prove from generators that h -> A[h] = action(h, .) maps H into
        Aut(N): A[e] = id and A[h*t] = A[h] o A[t] for each generator t of H,
        and A[h][x*g] = A[h][x] * A[h][g] for each generator g of N. The t and
        g passing are closed under products, as in Light's test."""
        left, right, A = self.left, self.right, self._acted
        if A.min() < 0 or A.max() >= left.n:
            raise ValueError("action does not map N into itself")
        if (A[:, left.identity_index] != left.identity_index).any():
            raise ValueError("action does not fix the identity")
        if (A[right.identity_index] != np.arange(left.n)).any() or any(
                (A[right.column(t)] != A[:, A[t]]).any() for t in right.generator_indices):
            raise ValueError("action is not a left H-action")
        for g in left.generator_indices:
            moved = left.products(A.ravel(), np.repeat(A[:, g], left.n))
            if (A[:, left.column(g)].ravel() != moved).any():
                raise ValueError("action is not by homomorphisms")

    def split(self, i):
        return i % self.left.n, i // self.left.n

    def join(self, npart, hpart):
        return hpart * self.left.n + npart

    def products(self, xs, ys):
        n1, h1 = self.split(xs)
        n2, h2 = self.split(ys)
        return self.join(self.left.products(n1, self._acted[h1, n2]),
                         self.right.products(h1, h2))

    def _compute_inverses(self):
        n1, h1 = self.split(np.arange(self.n))
        hinv = self.right.inverses()[h1]
        return self.join(self._acted[hinv, self.left.inverses()[n1]], hinv)

    def label(self, i):
        n1, h1 = self.split(i)
        return "(%s, %s)" % (self.left.label(n1), self.right.label(h1))


def as_indexed(group, cap=Config.cayley_cap):
    """Present a group handle with integer element indexes."""
    if isinstance(group, IndexedGroup):
        return group
    if isinstance(group, PermGroup):
        return PermIndexedGroup(group, cap=cap)
    raise TypeError("cannot index %r" % type(group).__name__)


def densify(group, cap=DENSE_CAP):
    """Materialize a TableGroup, one column per element; only for small orders."""
    g = as_indexed(group)
    if isinstance(g, TableGroup):
        return g
    if g.n > cap:
        raise CapExceeded("order %d too large for a dense table" % g.n)
    return TableGroup(np.stack([g.column(j) for j in range(g.n)], axis=1))
