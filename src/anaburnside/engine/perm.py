"""Permutation groups with a deterministic stabilizer chain."""

import math
import random

import numpy as np

from ..config import Config
from ..errors import CapExceeded


def row_keys(rows):
    """One key per row of `element_rows` rows (or a key for a single row):
    the row's bytes."""
    return np.ascontiguousarray(rows).view((np.void, rows.shape[-1] * rows.itemsize))[..., 0]


class Permutation:
    """Bijection of {0..degree-1}, composed left to right: (a*b)(p) = b(a(p))."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError("images must be a bijection of 0..degree-1")
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_hash", hash(imgs))

    @staticmethod
    def identity(degree):
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(degree, cycles):
        imgs = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a] = b
        return Permutation(imgs)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        a, b = self.images, other.images
        return Permutation(b[p] for p in a)

    def inverse(self):
        imgs = [0] * len(self.images)
        for p, q in enumerate(self.images):
            imgs[q] = p
        return Permutation(imgs)

    def is_identity(self):
        return all(p == q for p, q in enumerate(self.images))

    def cycles(self, include_fixed=False):
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def one_line(self):
        """1-based image list, the on-disk convention."""
        return [p + 1 for p in self.images]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cyc)


class _ChainLevel:
    """One stabilizer-chain level.

    `gens` is the full strong-generator list fixing every earlier base point,
    so the orbit of `point` under it is the orbit in the stabilizer subgroup.
    """

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point, degree):
        self.point = point
        self.gens = []
        self.transversal = {point: Permutation.identity(degree)}

    def rebuild_orbit(self, degree):
        self.transversal = {self.point: Permutation.identity(degree)}
        frontier = [self.point]
        while frontier:
            nxt = []
            for p in frontier:
                u = self.transversal[p]
                for g in self.gens:
                    q = g(p)
                    if q not in self.transversal:
                        self.transversal[q] = u * g
                        nxt.append(q)
            frontier = nxt


class PermGroup:
    """Group generated by permutations, order via a Schreier-Sims chain."""

    def __init__(self, degree, generators, degree_cap=Config.degree_cap):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if degree > degree_cap:
            raise CapExceeded("degree %d exceeds cap %d" % (degree, degree_cap))
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d != group degree %d" % (g.degree, degree))
        self.degree = degree
        self.generators = [g for g in gens if not g.is_identity()]
        self._levels = None
        self._base_hint = ()

    # -- group-handle protocol used by word evaluation --

    def identity(self):
        return Permutation.identity(self.degree)

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def contains(self, g):
        if not isinstance(g, Permutation) or g.degree != self.degree:
            return False
        return self._sift(g).is_identity()

    # -- stabilizer chain --

    def set_base_hint(self, points):
        """Prefer these base points (in order) when the chain is built."""
        if self._levels is not None:
            raise ValueError("chain already built")
        self._base_hint = tuple(points)

    def _chain(self):
        if self._levels is None:
            self._build_chain()
        return self._levels

    def _first_moved(self, g):
        for p in self._base_hint:
            if g(p) != p:
                return p
        for p in range(self.degree):
            if g(p) != p:
                return p
        return None

    def _build_chain(self):
        # Hint points become a base prefix so pointwise_stabilizer_gens can
        # rely on the strong-generator property for that prefix.
        self._levels = [_ChainLevel(p, self.degree) for p in self._base_hint]
        for g in self.generators:
            self._insert(g)
        if not self._levels:
            self._levels = [_ChainLevel(0, self.degree)]

    def _strip(self, level, g):
        """Sift from `level` down; returns (residue, level where it failed)."""
        levels = self._levels
        for i in range(level, len(levels)):
            lv = levels[i]
            p = g(lv.point)
            if p == lv.point:
                continue
            if p not in lv.transversal:
                return g, i
            g = g * lv.transversal[p].inverse()
        return g, len(levels)

    def _insert(self, g, start=0):
        """Add one new strong generator, keeping levels >= start complete."""
        residue, j = self._strip(start, g)
        if residue.is_identity():
            return False
        if j == len(self._levels):
            self._levels.append(_ChainLevel(self._first_moved(residue), self.degree))
        for m in range(start, j + 1):
            self._levels[m].gens.append(residue)
        for m in range(j, start - 1, -1):
            self._complete_level(m)
        return True

    def _complete_level(self, level):
        """Re-establish the Schreier condition at one level."""
        lv = self._levels[level]
        restart = True
        while restart:
            restart = False
            lv.rebuild_orbit(self.degree)
            for pt in list(lv.transversal):
                u = lv.transversal[pt]
                for s in lv.gens:
                    schreier = u * s * lv.transversal[s(pt)].inverse()
                    if self._insert(schreier, start=level + 1):
                        restart = True
                        break
                if restart:
                    break

    def _sift(self, g):
        self._chain()
        residue, _ = self._strip(0, g)
        return residue

    def order(self):
        n = 1
        for lv in self._chain():
            n *= len(lv.transversal)
        return n

    def pointwise_stabilizer_gens(self, points):
        """Strong generators for the subgroup fixing every point in `points`.

        Sound only when `points` was installed as the base hint, so those
        points form a base prefix and the prefix level's generator list is
        the stabilizer's strong generating set.
        """
        fixed = set(points)
        levels = self._chain()
        t = 0
        while t < len(levels) and levels[t].point in fixed:
            t += 1
        if t < len(levels) and any(lv.point in fixed for lv in levels[t:]):
            raise ValueError("points are not a base prefix; set_base_hint first")
        gens = levels[t].gens if t < len(levels) else []
        for g in gens:
            if any(g(p) != p for p in fixed):
                raise RuntimeError("stabilizer extraction produced a moving element")
        return list(gens)

    # -- element access --

    def element_rows(self, cap=1_000_000):
        """Every element's image row, in lexicographic order (identity first).

        Each element is u_last * ... * u_1 * u_0, one coset representative
        per chain level, the deepest applied first (x*y is y after x: rows
        u[r]), so one gather per level lists every element once. Values are
        non-negative and, past degree 127, big endian, so sorting the rows'
        bytes sorts the rows.
        """
        n = self.order()
        if n > cap:
            raise CapExceeded("order %d exceeds enumeration cap %d" % (n, cap))
        deg = self.degree
        dtype = np.dtype(np.int8 if deg <= 127 else ">i2")
        rows = np.arange(deg).astype(dtype)[None, :]
        for level in reversed(self._chain()):
            reps = np.array([u.images for u in level.transversal.values()], dtype=dtype)
            rows = reps[:, rows].reshape(-1, deg)
        rows = rows[np.argsort(row_keys(rows))]
        keys = row_keys(rows)
        found = 1 + np.count_nonzero(keys[1:] != keys[:-1])
        if found != n:
            raise RuntimeError("enumeration found %d elements, chain says %d" % (found, n))
        return rows

    def elements(self, cap=1_000_000):
        return [Permutation(row) for row in self.element_rows(cap).tolist()]

    def random_element(self, rng=None):
        """Uniform sample: one transversal representative per level."""
        rng = rng or random
        g = Permutation.identity(self.degree)
        for lv in self._chain():
            reps = sorted(lv.transversal)
            g = lv.transversal[reps[rng.randrange(len(reps))]] * g
        return g

    # -- orbits and blocks --

    def orbits(self):
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            orb = [start]
            seen[start] = True
            frontier = [start]
            while frontier:
                nxt = []
                for p in frontier:
                    for g in self.generators:
                        q = g(p)
                        if not seen[q]:
                            seen[q] = True
                            orb.append(q)
                            nxt.append(q)
                frontier = nxt
            out.append(sorted(orb))
        return out

    def is_transitive(self):
        return len(self.orbits()) == 1 and self.degree >= 1

    def minimal_block_system(self, alpha, beta):
        """Finest block system (on the orbit of alpha) merging alpha and beta."""
        parent = list(range(self.degree))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra == rb:
                return None
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            return ra, rb

        queue = [(alpha, beta)]
        union(alpha, beta)
        while queue:
            a, b = queue.pop()
            for g in self.generators:
                merged = union(g(a), g(b))
                if merged:
                    queue.append(merged)
        classes = {}
        for p in range(self.degree):
            classes.setdefault(find(p), []).append(p)
        return sorted(sorted(c) for c in classes.values())

    def nontrivial_block_systems(self):
        """Minimal nontrivial block systems of a transitive group."""
        if not self.is_transitive():
            raise ValueError("block systems require a transitive group")
        systems = []
        seen = set()
        for beta in range(1, self.degree):
            part = self.minimal_block_system(0, beta)
            sizes = {len(b) for b in part}
            if len(part) == 1 or sizes == {1}:
                continue
            key = tuple(tuple(b) for b in part)
            if key not in seen:
                seen.add(key)
                systems.append(part)
        return systems

    def block_action(self, blocks):
        """Image of the group permuting the given blocks, plus the point map."""
        index_of = {}
        for i, blk in enumerate(blocks):
            for p in blk:
                index_of[p] = i
        gens = []
        for g in self.generators:
            imgs = [index_of[g(blk[0])] for blk in blocks]
            gens.append(Permutation(imgs))
        return PermGroup(len(blocks), gens), index_of

    def block_kernel(self, blocks):
        """Kernel of the action on `blocks`, certified by an order product."""
        index_of = {}
        for i, blk in enumerate(blocks):
            for p in blk:
                index_of[p] = i
        b = len(blocks)
        aug_gens = []
        for g in self.generators:
            imgs = list(g.images) + [self.degree + index_of[g(blk[0])] for blk in blocks]
            aug_gens.append(Permutation(imgs))
        aug = PermGroup(self.degree + b, aug_gens, degree_cap=self.degree + b)
        aug.set_base_hint(range(self.degree, self.degree + b))
        kernel_gens = aug.pointwise_stabilizer_gens(range(self.degree, self.degree + b))
        restricted = [Permutation(g.images[: self.degree]) for g in kernel_gens]
        kernel = PermGroup(self.degree, restricted, degree_cap=self.degree)
        image, _ = self.block_action(blocks)
        if kernel.order() * image.order() != self.order():
            raise RuntimeError("block kernel order check failed")
        return kernel

    # -- normal structure on generators --

    def normal_closure(self, seed_perms):
        """Smallest subgroup containing the seeds and normal in this group;
        each conjugate not yet inside joins the one closure's chain."""
        closure = PermGroup(self.degree, [g for g in seed_perms if not g.is_identity()],
                            degree_cap=self.degree)
        pending = list(closure.generators)
        while pending:
            h = pending.pop()
            for g in self.generators:
                c = g.inverse() * h * g
                if not closure.contains(c):
                    closure.generators.append(c)
                    closure._insert(c)
                    pending.append(c)
        return closure

    def derived_subgroup(self):
        comms = []
        gens = self.generators
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                comms.append(a.inverse() * b.inverse() * a * b)
        return self.normal_closure(comms)

    def derived_series(self, max_steps=64):
        series = [self]
        while len(series) <= max_steps:
            nxt = series[-1].derived_subgroup()
            if nxt.order() == series[-1].order():
                break
            series.append(nxt)
            if nxt.order() == 1:
                break
        return series

    def is_perfect(self):
        return self.derived_subgroup().order() == self.order()

    def is_solvable(self):
        return self.derived_series()[-1].order() == 1

    def is_subgroup_of(self, other):
        return all(other.contains(g) for g in self.generators)

    def is_normal_in(self, other):
        for g in other.generators:
            gi = g.inverse()
            for h in self.generators:
                if not self.contains(gi * h * g):
                    return False
        return True

    def __repr__(self):
        return "PermGroup(degree=%d, gens=%d)" % (self.degree, len(self.generators))
