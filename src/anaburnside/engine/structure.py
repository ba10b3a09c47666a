"""Normal structure: composition factors, radicals, and series verification."""

import math
from dataclasses import dataclass

from ..catalog import factorize, simple_name
from ..config import Config
from . import _numpy as np
from .indexed import Closure, QuotientGroup, SubgroupView, as_indexed, least_in_orbits
from .perm import PermGroup


# ---------------------------------------------------------------------------
# index-level subgroup machinery
#
# Subgroups are boolean masks over the element indexes, grown as frontier
# arrays over the substrate's columns; the public functions hand out sets.

def _mask(G, indices):
    mask = np.zeros(G.n, dtype=bool)
    mask[list(indices)] = True
    return mask


def _frozen(mask):
    return frozenset(np.flatnonzero(mask).tolist())


def _size(mask):
    return int(np.count_nonzero(mask))


def subgroup_closure(G, gens, cap=None):
    """Elements of <gens> by breadth-first products; None once past `cap`."""
    closure = Closure(G, cap)
    for g in gens:
        if not closure.add(g):
            return None
    return set(np.flatnonzero(closure.mask).tolist())


def normal_closure_indexed(G, seeds, cap=None, reject_supersets=()):
    """Smallest subgroup containing the seeds and normal in G, with its
    generators.

    Returns (element mask, generators) or None when the closure passes `cap`
    or is seen to strictly contain a mask from `reject_supersets` (used to
    discard provably non-minimal candidates early). Seeds and conjugates go
    into one `Closure`, whose generators are the elements that grew it, so
    at most log2 of its order. Each round conjugates, by the group's
    generators, only the generators added in the round before, since the
    conjugates of older ones already lie inside.
    """
    closure = Closure(G, cap)
    fresh = seeds
    while True:
        kept = len(closure.gens)
        for g in fresh:
            if not closure.add(g):
                return None
        grown = closure.gens[kept:]
        if not grown:
            return closure.mask, tuple(closure.gens)
        S = closure.mask
        for other in reject_supersets:
            if closure.size > _size(other) and not (other & ~S).any():
                return None
        h = np.array(grown, dtype=np.intp)
        conj = np.concatenate([G.conjugates(h, g) for g in G.generator_indices])
        fresh = conj[~S[conj]].tolist()


def _class_least(G):
    """Least element of every element's conjugacy class."""
    everything = np.arange(G.n)
    return least_in_orbits(G.n, [G.conjugates(everything, g) for g in G.generator_indices])


def conjugacy_classes(G):
    """Conjugacy classes as sorted lists, ordered by least element."""
    least = _class_least(G)
    order = np.argsort(least, kind="stable")
    cuts = np.flatnonzero(np.diff(least[order])) + 1
    return [c.tolist() for c in np.split(order, cuts)]


def _pairs(gens):
    """Index arrays (a, b) of the pairs a = gens[i], b = gens[j], i < j, in
    row-major order."""
    i, j = np.triu_indices(len(gens), 1)
    gens = np.asarray(gens, dtype=np.intp)
    return gens[i], gens[j]


def _commute(G, a, b):
    """True when a[i] b[i] = b[i] a[i] for every i of the index arrays a
    and b: one batched `products` pair."""
    return bool((G.products(a, b) == G.products(b, a)).all())


def _gens_commute(G, gens):
    return _commute(G, *_pairs(gens))


def _of_prime_order(G, xs):
    """Mask of the elements of the index array `xs` that have prime order:
    x != e with x^p = e for a prime p dividing |G|. That takes one
    square-and-multiply pass per prime, where computing the orders takes as
    many products as the largest element order."""
    e = G.identity_index
    hit = np.zeros(len(xs), dtype=bool)
    for p, _ in factorize(G.n):
        hit |= G.powers(p, xs) == e
    return hit & (xs != e)


def _minimal_normals_with_gens(G):
    """Minimal normal subgroups as (element mask, generators) pairs,
    computed once per indexed group and kept on it, masks read-only.

    Every minimal normal subgroup is the normal closure of any of its
    prime-order elements, so closures of prime-order class representatives
    are a complete candidate list (Holt, Eick & O'Brien, ch. 4). Every
    representative gets its own closure: one lying in an earlier closure
    may still generate a smaller one, so that closure stops once it grows
    past half the earlier one. Candidates that grow past half the group are
    the whole group; candidates swallowing an earlier proper candidate are
    not minimal. If nothing proper remains the group is simple.

    A representative x is not closed at all when some earlier closure S has
    x outside it and x fails to commute with a generator of S. S is normal,
    so for s in S the commutator [x,s] = x^-1 (s^-1 x s) = (x^-1 s^-1 x) s
    lies both in N = <x^G> and in S. If x does not centralize S, some such
    commutator is nontrivial, and N∩S is a nontrivial normal subgroup that
    misses x, so properly inside N: N is not minimal. The test never skips
    a representative whose closure is a minimal normal subgroup M, so each
    M is still found first by the same representative, with the same
    generators, and the result is unchanged.
    """
    if G._minimal_normals is None:
        G._minimal_normals = _find_minimal_normals(G)
    return G._minimal_normals


def _find_minimal_normals(G):
    if G.n == 1:
        return ()
    least = _class_least(G)
    classes = np.flatnonzero(least == np.arange(G.n))  # each class's least element
    sizes = np.bincount(least)[classes]
    prime = _of_prime_order(G, classes)
    reps = sorted(zip(sizes[prime].tolist(), classes[prime].tolist()))
    found = []
    for _, rep in reps:
        # outside an earlier closure and not centralizing it: not minimal
        outside = np.array([g for S, gens in found if not S[rep] for g in gens], dtype=np.intp)
        if outside.size and not _commute(G, np.full_like(outside, rep), outside):
            continue
        # a normal subgroup inside an earlier closure S is S, found
        # already, or at most half of S
        cap = min([G.n] + [_size(S) for S, _ in found if S[rep]]) // 2
        result = normal_closure_indexed(
            G, [rep], cap=cap, reject_supersets=[S for S, _ in found])
        if result is not None:
            found.append(result)
    minimal = []
    for S, gens in found:
        if not any(_size(T) < _size(S) and not (T & ~S).any() for T, _ in found):
            minimal.append((S, gens))
    if not minimal:
        minimal = [(np.ones(G.n, dtype=bool), tuple(G.generator_indices))]
    # the closures are distinct: a representative inside an earlier closure
    # S is capped at half of S, and one outside every earlier closure lies
    # in its own
    minimal.sort(key=lambda p: (_size(p[0]), np.flatnonzero(p[0]).tolist()))
    for S, _ in minimal:
        S.flags.writeable = False
    return tuple(minimal)


def minimal_normal_subgroups(G):
    """Minimal normal subgroups as frozensets of element indexes."""
    Gi = as_indexed(G)
    return [_frozen(S) for S, _ in _minimal_normals_with_gens(Gi)]


def is_solvable(G):
    """True when the derived series reaches the identity. Each term is the
    normal closure in G of the commutators of the previous term's
    generators: that term is characteristic, so normal in G, and the
    closure is its derived subgroup.

    Each closure is capped at half the previous term: the derived subgroup
    lies in that term, so by Lagrange one past half of it is all of it, and
    the series has stopped short of the identity."""
    Gi = as_indexed(G)
    inv = Gi.inverses()
    size, gens = Gi.n, Gi.generator_indices
    while size > 1:
        a, b = _pairs(gens)
        comms = Gi.products(Gi.products(inv[a], inv[b]), Gi.products(a, b))
        term = normal_closure_indexed(Gi, comms.tolist(), cap=size // 2)
        if term is None:
            return False
        S, gens = term
        size = _size(S)
    return True


def _peel_radical(Q):
    """(radical mask, top quotient, its minimal normal subgroups) for a
    nonsolvable Q.

    Factors out the normal closure of the abelian minimal normal subgroups
    until none is left. Each step removes a solvable normal subgroup, so the
    quotients stay nonsolvable, and one with no abelian minimal normal
    subgroup has a trivial radical: the radical of Q is what maps to the
    identity of the top, read from the composed coset labels. The top is Q
    itself when its radical is trivial.
    """
    labels = np.arange(Q.n)
    top = Q
    while True:
        mins = _minimal_normals_with_gens(top)
        abelian = [g for _, gens in mins if _gens_commute(top, gens) for g in gens]
        if not abelian:
            return labels == top.identity_index, top, mins
        N, Ngens = normal_closure_indexed(top, abelian)
        top = QuotientGroup(top, np.flatnonzero(N), Ngens)
        labels = top.labels[labels]


def solvable_radical(G):
    """Largest solvable normal subgroup, as a frozenset of indexes."""
    Gi = as_indexed(G)
    if is_solvable(Gi):
        return frozenset(range(Gi.n))
    return _frozen(_peel_radical(Gi)[0])


def socle(G):
    """Product of the minimal normal subgroups, as (set, gens)."""
    Gi = as_indexed(G)
    seeds = [g for _, gens in _minimal_normals_with_gens(Gi) for g in gens]
    S, gens = normal_closure_indexed(Gi, seeds)
    return _frozen(S), gens


# ---------------------------------------------------------------------------
# composition factors

@dataclass(frozen=True)
class CompositionFactor:
    kind: str
    order: int
    name: str


@dataclass
class CompositionReport:
    group_order: int
    factors: tuple
    series: tuple
    anabelian: bool

    def factor_orders(self):
        return tuple(f.order for f in self.factors)


def composition_report(G):
    """Composition factors with a subnormal series witness.

    The series is an ascending chain of element-index sets of the indexed
    presentation, each normal in the next with simple quotient; factor i
    is the quotient series[i+1]/series[i]. It is read off a loop over
    quotients: each peels its least minimal normal subgroup M, one
    composition factor at a time, and the loop stops when M is the whole
    quotient. `labels` maps the group onto the current quotient, so a mask
    over the quotient pulls back as `mask[labels]`.
    """
    Gi = as_indexed(G)
    factors = []
    series = [frozenset({Gi.identity_index})]
    Q, labels = Gi, np.arange(Gi.n)
    while Q.n > 1:
        M, Mgens = _minimal_normals_with_gens(Q)[0]
        size = _size(M)
        if _gens_commute(Q, Mgens):
            p = Q.order_of(Mgens[0])
            current = Closure(Q)
            while current.size < size:
                prev = current.size
                current.add(int(np.flatnonzero(M & ~current.mask)[0]))
                if current.size != prev * p:
                    raise RuntimeError("abelian layer step is not of prime index")
                factors.append(CompositionFactor("cyclic", p, "C_%d" % p))
                series.append(_frozen(current.mask[labels]))
        else:
            V = SubgroupView(Q, np.flatnonzero(M), Mgens)
            current = Closure(V)
            for S, Sgens in _minimal_normals_with_gens(V):
                prev = current.size
                for g in Sgens:
                    current.add(g)
                if current.size != prev * _size(S):
                    raise RuntimeError("semisimple layer is not a direct product of its parts")
                factors.append(CompositionFactor("nonabelian", _size(S), simple_name(_size(S))))
                series.append(_frozen(_mask(Q, V.globals[current.mask])[labels]))
            if current.size != size:
                raise RuntimeError("simple parts do not fill the minimal normal subgroup")
        if size == Q.n:
            break
        Q = QuotientGroup(Q, np.flatnonzero(M), Mgens)
        labels = Q.labels[labels]
    order_product = 1
    for f in factors:
        order_product *= f.order
    if order_product != Gi.n:
        raise RuntimeError("composition factor orders do not multiply to the group order")
    anabelian = not any(f.kind == "cyclic" for f in factors)
    return CompositionReport(group_order=Gi.n, factors=tuple(factors),
                             series=tuple(series), anabelian=anabelian)


def is_simple(G):
    """Simple: the only nontrivial normal subgroup is the whole group."""
    Gi = as_indexed(G)
    if Gi.n == 1:
        return False
    mins = _minimal_normals_with_gens(Gi)
    return len(mins) == 1 and _size(mins[0][0]) == Gi.n


def is_anabelian(G):
    """True when no composition factor is cyclic."""
    return composition_report(G).anabelian


def is_semisimple(G):
    """True for a direct product of nonabelian simple groups.

    That holds iff no minimal normal subgroup is abelian and their orders
    multiply to |G|. Two distinct nonabelian minimal normal subgroups meet
    in a normal subgroup properly inside each, so trivially, and hence
    commute. One lying in the product of the others would then be central
    in it, so abelian: the product is direct. With orders multiplying to
    |G| it is G, and a normal subgroup of one factor is normal in G, so by
    minimality each factor is simple. Conversely the minimal normal
    subgroups of such a product are its simple factors.
    """
    Gi = as_indexed(G)
    if Gi.n == 1:
        return False
    product = 1
    for S, gens in _minimal_normals_with_gens(Gi):
        if _gens_commute(Gi, gens):
            return False
        product *= _size(S)
    return product == Gi.n


# ---------------------------------------------------------------------------
# nonsolvable length

@dataclass(frozen=True)
class LambdaFactor:
    description: str
    order: int
    kind: str
    nonsolvable: bool
    certificate: str


@dataclass
class LambdaReport:
    value: int
    exact: bool
    factors: tuple
    notes: tuple = ()

    def summary(self):
        marker = "=" if self.exact else "<="
        return "lambda %s %d" % (marker, self.value)


def nonsolvable_length(G):
    """Minimal number of nonsolvable layers in a normal series (0 iff solvable).

    The value is that of the radical-socle series: the solvable radical,
    then the socle of the quotient by it, and so on up. That series is a
    shortest one, since each of its terms is the largest possible
    (Khukhro & Shumyatsky, "Nonsoluble and non-p-soluble length of finite
    groups", 2015), so the value is exact. A value of 2 or more also lies out
    of reach of any indexed group: it needs G/R/Soc nonsolvable inside
    Out(T) wr Sym(k), and Out(T) is solvable, so k >= 5 and
    |G| >= 60^6, about 4.7 * 10^10.

    One loop step is one level: peel the radical, take the socle of the top
    quotient, and go on with the quotient by it, until that is solvable or
    the socle fills the top. Every minimal normal subgroup of the top is
    nonabelian, so the socle is their direct product (the argument in
    `is_semisimple`) and its order is the product of their orders. The
    socle itself is closed only when it is proper, to quotient by it.
    """
    Q = as_indexed(G)
    value, factors = 0, []
    while not is_solvable(Q):
        R, top, mins = _peel_radical(Q)
        if _size(R) > 1:
            factors.append(LambdaFactor("solvable radical", _size(R), "solvable", False,
                                        "largest solvable normal subgroup"))
        order = math.prod(_size(S) for S, _ in mins)
        factors.append(LambdaFactor("semisimple socle layer", order, "semisimple", True,
                                    "product of nonabelian minimal normal subgroups"))
        value += 1
        if order == top.n:
            break
        soc, socgens = normal_closure_indexed(top, [g for _, gens in mins for g in gens])
        Q = QuotientGroup(top, np.flatnonzero(soc), socgens)
    else:
        if Q.n > 1:
            factors.append(LambdaFactor("solvable group", Q.n, "solvable", False,
                                        "derived series reaches the identity"))
    return LambdaReport(value=value, exact=True, factors=tuple(factors))


# ---------------------------------------------------------------------------
# series verification for large permutation groups

def _certify_semisimple(group, cayley_cap):
    """(ok, certificate) for a permutation group being semisimple.

    G embeds in the direct product of its restrictions to its nontrivial
    orbits. When there are two or more and their orders multiply to |G| it
    is that product, and semisimple iff each restriction is; otherwise G
    itself is checked. Each check is `is_semisimple` on a group indexed
    under `cayley_cap`.
    """
    restrictions = [group.block_action([[p] for p in o])[0]
                    for o in group.orbits() if len(o) > 1]
    if len(restrictions) < 2 or math.prod(r.order() for r in restrictions) != group.order():
        restrictions = [group]
    for r in restrictions:
        if not is_semisimple(as_indexed(r, cap=cayley_cap)):
            return False, "element-level check failed"
    return True, ("element-level check: %d direct factors, each a product of "
                  "nonabelian simple minimal normals" % len(restrictions))


def resolve_series_descriptor(G, descriptor):
    """Build the subgroup a series descriptor names. Returns (group, blocks).

    Descriptors: trivial | full | derived:k | block_kernel:<block size>.
    """
    d = descriptor.strip()
    if d == "trivial":
        return PermGroup(G.degree, [], degree_cap=G.degree), None
    if d == "full":
        return G, None
    if d.startswith("derived:"):
        k = int(d.split(":", 1)[1])
        if k < 1:
            raise ValueError("derived:k needs k >= 1")
        sub = G
        for _ in range(k):
            sub = sub.derived_subgroup()
        return sub, None
    if d.startswith("block_kernel:"):
        size = int(d.split(":", 1)[1])
        systems = [s for s in G.nontrivial_block_systems() if len(s[0]) == size]
        if len(systems) != 1:
            raise ValueError("expected one block system with blocks of size %d, found %d"
                             % (size, len(systems)))
        return G.block_kernel(systems[0]), systems[0]
    raise ValueError("unknown series descriptor: %r" % descriptor)


def verify_series_lambda(G, descriptors, cayley_cap=Config.cayley_cap):
    """Upper bound for the nonsolvable length from a user-supplied series.

    Each descriptor names a subgroup; the chain must ascend with each term
    normal in the next. Every factor is certified solvable or semisimple;
    the bound is the number of semisimple (hence nonsolvable) factors.
    Solvability is read from generators; every group a semisimplicity
    check indexes has order at most `cayley_cap`.
    """
    if not isinstance(G, PermGroup):
        raise TypeError("verify_series_lambda expects a permutation group")
    if len(descriptors) < 2:
        raise ValueError("need at least two series terms")
    chain = []
    blocks_of = []
    for d in descriptors:
        sub, blocks = resolve_series_descriptor(G, d)
        chain.append((d.strip(), sub))
        blocks_of.append(blocks)
    if chain[0][1].order() != 1:
        raise ValueError("series must start at the trivial subgroup")
    if chain[-1][1].order() != G.order():
        raise ValueError("series must end at the full group")
    factors = []
    value = 0
    for i in range(len(chain) - 1):
        dlo, lo = chain[i]
        dhi, hi = chain[i + 1]
        if not lo.is_subgroup_of(hi):
            raise ValueError("series term %r is not contained in %r" % (dlo, dhi))
        if not lo.is_normal_in(hi):
            raise ValueError("series term %r is not normal in %r" % (dlo, dhi))
        ratio = hi.order() // lo.order()
        if ratio == 1:
            continue
        desc = "%s / %s" % (dhi, dlo)
        core = hi.derived_series()[-1]  # the perfect core
        if core.is_subgroup_of(lo):
            factors.append(LambdaFactor(desc, ratio, "solvable", False,
                                        "perfect core of the upper term lies in the lower term"))
            continue
        if lo.order() == 1:
            ok, cert = _certify_semisimple(hi, cayley_cap)
        elif blocks_of[i] is not None and hi.order() == G.order():
            image, _ = G.block_action(blocks_of[i])
            if image.order() != ratio:
                raise RuntimeError("block image order does not match the factor")
            ok, cert = _certify_semisimple(image, cayley_cap)
            cert = "factor is the block-action image; " + cert
        elif hi.order() <= cayley_cap:
            Hi = as_indexed(hi, cap=cayley_cap)
            Q = QuotientGroup(Hi, Hi.index_of_rows(as_indexed(lo, cap=cayley_cap).rows))
            ok, cert = (True, "element-level quotient check") if is_semisimple(Q) \
                else (False, "element-level quotient check failed")
        else:
            raise ValueError("cannot certify factor %s: no decomposition applies" % desc)
        if not ok:
            raise ValueError("factor %s failed semisimplicity: %s" % (desc, cert))
        factors.append(LambdaFactor(desc, ratio, "semisimple", True, cert))
        value += 1
    return LambdaReport(value=value, exact=False, factors=tuple(factors),
                        notes=("verified series gives an upper bound",))
