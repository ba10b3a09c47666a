"""Constructors for the supported group descriptors."""

import json
import re

from ..catalog import exact_order, factorize, psl2
from ..config import Config
from ..errors import CapExceeded
from .indexed import CyclicGroup, TableGroup
from .perm import Permutation, PermGroup

# Monic irreducible polynomials, coefficients listed from the constant term up.
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (1, 1, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
}


class GaloisField:
    """Arithmetic tables for GF(q), elements encoded as 0..q-1 base-p digits."""

    def __init__(self, q):
        factors = factorize(q) if q >= 2 else ()
        if len(factors) != 1:
            raise ValueError("%d is not a prime power" % q)
        p, e = factors[0]
        self.q, self.p, self.e = q, p, e
        if e > 1 and q not in _IRREDUCIBLE:
            raise ValueError("no modulus table for q=%d" % q)
        self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    def add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def _poly_mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        mod = _IRREDUCIBLE[self.q]
        for i in range(len(prod) - 1, self.e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, m in enumerate(mod[:-1]):
                    prod[i - self.e + j] = (prod[i - self.e + j] - c * m) % self.p
        return self._encode(prod[: self.e])

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]


def cyclic(n, degree_cap=Config.degree_cap, cayley_cap=Config.cayley_cap):
    """Cyclic group of order n, as permutations up to the degree cap, else as
    the integers mod n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n <= degree_cap:
        if n == 1:
            return PermGroup(1, [], degree_cap)
        return PermGroup(n, [Permutation([(i + 1) % n for i in range(n)])], degree_cap)
    return CyclicGroup(n, cayley_cap)


def _check_degree(kind, degree, degree_cap):
    """Refuse a group of degree past `degree_cap` before any of it is built."""
    if degree > degree_cap:
        raise CapExceeded("%s degree %d exceeds degree_cap %d" % (kind, degree, degree_cap))


def symmetric(m, degree_cap=Config.degree_cap):
    if m < 1:
        raise ValueError("symmetric requires m >= 1")
    _check_degree("symmetric", m, degree_cap)
    if m == 1:
        return PermGroup(1, [], degree_cap)
    gens = [Permutation.from_cycles(m, [(0, 1)])]
    if m > 2:
        gens.append(Permutation.from_cycles(m, [tuple(range(m))]))
    return PermGroup(m, gens, degree_cap)


def alternating(m, degree_cap=Config.degree_cap):
    if m < 1:
        raise ValueError("alternating requires m >= 1")
    _check_degree("alternating", m, degree_cap)
    if m <= 2:
        return PermGroup(m, [], degree_cap)
    gens = [Permutation.from_cycles(m, [(0, 1, 2)])]
    if m > 3:
        cyc = tuple(range(m)) if m % 2 == 1 else tuple(range(1, m))
        gens.append(Permutation.from_cycles(m, [cyc]))
    return PermGroup(m, gens, degree_cap)


def dihedral(n, degree_cap=Config.degree_cap):
    """Symmetries of the n-gon, order 2n, for n >= 3."""
    if n < 3:
        raise ValueError("dihedral requires n >= 3")
    _check_degree("dihedral", n, degree_cap)
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, ref], degree_cap)


def psl2_group(q, degree_cap=Config.degree_cap):
    """PSL(2,q) acting on the q+1 points of the projective line.

    Point i < q is the field element i, point q is the point at infinity.
    Generated by all upper and lower transvections; the order is asserted
    against the catalog's `exact_order`. q + 1 past `degree_cap` is refused
    before the field is built, and a q that is a prime power but not prime
    needs an entry in `_IRREDUCIBLE`.
    """
    _check_degree("psl2", q + 1, degree_cap)
    field = GaloisField(q)
    inf = q

    def moebius(a, b, c, d):
        imgs = []
        for z in range(q + 1):
            if z == inf:
                imgs.append(inf if c == 0 else field.mul(a, field.inv(c)))
                continue
            den = field.add(field.mul(c, z), d)
            num = field.add(field.mul(a, z), b)
            imgs.append(inf if den == 0 else field.mul(num, field.inv(den)))
        return Permutation(imgs)

    gens = []
    for c in range(1, q):
        gens.append(moebius(1, c, 0, 1))
        gens.append(moebius(1, 0, c, 1))
    group = PermGroup(q + 1, gens, degree_cap)
    expected = exact_order(psl2(q))
    if group.order() != expected:
        raise RuntimeError("psl2(%d) order %d != %d" % (q, group.order(), expected))
    return group


def direct_product(groups, degree_cap=Config.degree_cap):
    """Direct product of permutation groups, acting on the disjoint union."""
    if not groups:
        raise ValueError("empty product")
    if not all(isinstance(g, PermGroup) for g in groups):
        raise ValueError("direct_product expects permutation groups")
    degree = sum(g.degree for g in groups)
    _check_degree("product", degree, degree_cap)
    gens = []
    offset = 0
    for g in groups:
        for p in g.generators:
            imgs = list(range(degree))
            for i, im in enumerate(p.images):
                imgs[offset + i] = offset + im
            gens.append(Permutation(imgs))
        offset += g.degree
    return PermGroup(degree, gens, degree_cap)


def wreath(inner, outer, degree_cap=Config.degree_cap):
    """Imprimitive wreath product: outer.degree blocks of inner's domain.

    Requires a transitive outer group; the order is asserted against
    |inner|^blocks * |outer|.
    """
    if not outer.is_transitive():
        raise ValueError("wreath requires a transitive outer group")
    d, b = inner.degree, outer.degree
    degree = d * b
    _check_degree("wreath", degree, degree_cap)
    gens = []
    for p in inner.generators:
        imgs = list(range(degree))
        for i, im in enumerate(p.images):
            imgs[i] = im
        gens.append(Permutation(imgs))
    for h in outer.generators:
        imgs = [h(j) * d + i for j in range(b) for i in range(d)]
        gens.append(Permutation(imgs))
    group = PermGroup(degree, gens, degree_cap)
    expected = inner.order() ** b * outer.order()
    if group.order() != expected:
        raise RuntimeError("wreath order %d != %d" % (group.order(), expected))
    return group


def from_file(path, degree_cap=Config.degree_cap, cayley_cap=Config.cayley_cap):
    """Load a group from JSON: permutation generators or a full table.

    Permutation format: {"degree": d, "generators": [[images, 1-based]]}.
    Table format: {"order": n, "table": [[element indexes, 0-based]]}.
    """
    with open(path) as fh:
        data = json.load(fh)
    if "generators" in data:
        degree = data["degree"]
        gens = []
        for images in data["generators"]:
            if sorted(images) != list(range(1, degree + 1)):
                raise ValueError("generator is not a bijection of 1..%d" % degree)
            gens.append(Permutation([p - 1 for p in images]))
        return PermGroup(degree, gens, degree_cap)
    if "table" in data:
        return TableGroup(data["table"], cayley_cap)
    raise ValueError("unrecognized group file: need 'generators' or 'table'")


_DESC_RE = re.compile(r"^\s*([a-z_0-9]+)\s*\((.*)\)\s*$", re.DOTALL)


def _split_args(text):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current.append(ch)
    tail = "".join(current).strip()
    if tail or parts:
        parts.append(tail)
    return parts


def make_group(descriptor, degree_cap=Config.degree_cap, cayley_cap=Config.cayley_cap):
    """Build a group from a descriptor string, every part under the caps.

    Supported: alternating(m), symmetric(m), cyclic(n), dihedral(n), psl2(q),
    direct_product(d1,d2,...), wreath(inner,outer), from_file(path).
    """
    m = _DESC_RE.match(descriptor)
    if not m:
        raise ValueError("bad group descriptor: %r" % descriptor)
    name, argtext = m.group(1), m.group(2)
    if name == "from_file":
        return from_file(argtext.strip(), degree_cap, cayley_cap)
    args = _split_args(argtext)
    if name in ("alternating", "symmetric", "cyclic", "dihedral", "psl2"):
        if len(args) != 1:
            raise ValueError("%s takes one integer argument" % name)
        value = int(args[0])
        if name == "cyclic":
            return cyclic(value, degree_cap, cayley_cap)
        builder = {"alternating": alternating, "symmetric": symmetric,
                   "dihedral": dihedral, "psl2": psl2_group}[name]
        return builder(value, degree_cap)
    if name == "direct_product":
        if not args or args == [""]:
            raise ValueError("direct_product needs at least one factor")
        return direct_product([make_group(a, degree_cap, cayley_cap) for a in args],
                              degree_cap)
    if name == "wreath":
        if len(args) != 2:
            raise ValueError("wreath takes two descriptors")
        return wreath(make_group(args[0], degree_cap, cayley_cap),
                      make_group(args[1], degree_cap, cayley_cap), degree_cap)
    raise ValueError("unknown group kind: %r" % name)
