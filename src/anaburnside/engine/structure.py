"""Normal structure: composition factors, radicals, and series verification."""

import math
from dataclasses import dataclass, field

import numpy as np

from ..catalog import factorize, is_prime_power
from .indexed import Closure, QuotientGroup, SubgroupView, as_indexed, least_in_orbits
from .perm import PermGroup, Permutation

SEMISIMPLE_INDEX_CAP = 30_000


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


def normal_closure_indexed(G, seeds, cap=None, reject_supersets=(), conjugators=None):
    """Closure of the seeds under multiplication and conjugation by
    `conjugators` (default: the group's generators), with its generator list.

    Returns (element mask, generators) or None when the closure passes `cap`
    or is seen to strictly contain a mask from `reject_supersets` (used to
    discard provably non-minimal candidates early). Each round appends, in
    order, the conjugates g^-1 h g (h-major) that lie outside the closure;
    only the generators appended in the round before are conjugated, since
    the conjugates of older ones already lie inside.
    """
    if conjugators is None:
        conjugators = G.generator_indices
    e = G.identity_index
    gens = []
    for s in seeds:
        if s != e and s not in gens:
            gens.append(s)
    closure = Closure(G, cap)
    fresh = gens
    while True:
        for g in fresh:
            if not closure.add(g):
                return None
        S = closure.mask
        for other in reject_supersets:
            if closure.size > _size(other) and not (other & ~S).any():
                return None
        if not fresh or not len(conjugators):
            return S, tuple(gens)
        h = np.array(fresh, dtype=np.intp)
        conj = np.stack([G.conjugates(h, g) for g in conjugators], axis=1).ravel()
        fresh = conj[~S[conj]].tolist()
        gens.extend(fresh)


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


def _gens_commute(G, gens):
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if G.mul(a, b) != G.mul(b, a):
                return False
    return True


def _minimal_normals_with_gens(G):
    """Minimal normal subgroups as (element mask, generators) pairs.

    Every minimal normal subgroup is the normal closure of any of its
    prime-order elements, so closures of prime-order class representatives
    are a complete candidate list. Candidates that grow past half the group
    are the whole group; candidates swallowing an earlier proper candidate
    are not minimal. If nothing proper remains the group is simple.
    """
    if G.n == 1:
        return []
    e = G.identity_index
    reps = []
    least = _class_least(G)
    classes = np.flatnonzero(least == np.arange(G.n))  # each class's least element
    sizes = np.bincount(least)[classes]
    orders = G.orders(classes)
    for rep, size, order in zip(classes.tolist(), sizes.tolist(), orders.tolist()):
        if rep == e:
            continue
        if factorize(order) == ((order, 1),):  # prime order
            reps.append((size, rep))
    reps.sort()
    found = []
    for _, rep in reps:
        if any(S[rep] for S, _ in found):
            continue
        result = normal_closure_indexed(
            G, [rep], cap=G.n // 2, reject_supersets=[S for S, _ in found])
        if result is not None:
            found.append(result)
    minimal = []
    for S, gens in found:
        if not any(_size(T) < _size(S) and not (T & ~S).any() for T, _ in found):
            minimal.append((S, gens))
    if not minimal:
        return [(np.ones(G.n, dtype=bool), tuple(G.generator_indices))]
    out = []
    seen = set()
    for S, gens in sorted(minimal, key=lambda p: (_size(p[0]), np.flatnonzero(p[0]).tolist())):
        key = np.packbits(S).tobytes()
        if key not in seen:
            seen.add(key)
            out.append((S, gens))
    return out


def minimal_normal_subgroups(G):
    """Minimal normal subgroups as frozensets of element indexes."""
    Gi = as_indexed(G)
    return [_frozen(S) for S, _ in _minimal_normals_with_gens(Gi)]


def _derived_masks(Gi):
    series = [(np.ones(Gi.n, dtype=bool), tuple(Gi.generator_indices))]
    while True:
        ambient = series[-1][1]
        comms = [Gi.mul(Gi.mul(Gi.inv(a), Gi.inv(b)), Gi.mul(a, b))
                 for i, a in enumerate(ambient) for b in ambient[i + 1:]]
        S, gens = normal_closure_indexed(Gi, comms, conjugators=ambient)
        if _size(S) == _size(series[-1][0]):
            break
        series.append((S, gens))
        if _size(S) == 1:
            break
    return [S for S, _ in series]


def derived_series_sets(G):
    """Descending derived series as element sets, stopping when stable."""
    return [_frozen(S) for S in _derived_masks(as_indexed(G))]


def is_solvable(G):
    if isinstance(G, PermGroup):
        return G.is_solvable()
    return _size(_derived_masks(as_indexed(G))[-1]) == 1


def derived_series(G):
    """Derived series; permutation groups stay permutation groups."""
    if isinstance(G, PermGroup):
        return G.derived_series()
    return derived_series_sets(G)


def solvable_radical(G):
    """Largest solvable normal subgroup, as a frozenset of indexes."""
    return _frozen(_radical_rec(as_indexed(G)))


def _radical_rec(Q):
    if is_solvable(Q):
        return np.ones(Q.n, dtype=bool)
    abelian = []
    for S, gens in _minimal_normals_with_gens(Q):
        if _gens_commute(Q, gens):
            abelian.append((S, gens))
    if not abelian:
        return _mask(Q, [Q.identity_index])
    seeds = [g for _, gens in abelian for g in gens]
    N, _ = normal_closure_indexed(Q, seeds)
    QQ = QuotientGroup(Q, np.flatnonzero(N))
    return _radical_rec(QQ)[QQ.labels]


def _socle(Gi):
    mins = _minimal_normals_with_gens(Gi)
    if not mins:
        return _mask(Gi, [Gi.identity_index]), ()
    seeds = [g for _, gens in mins for g in gens]
    return normal_closure_indexed(Gi, seeds)


def socle(G):
    """Product of the minimal normal subgroups, as (set, gens)."""
    S, gens = _socle(as_indexed(G))
    return _frozen(S), gens


# ---------------------------------------------------------------------------
# composition factors

_ALT_ORDERS = {math.factorial(m) // 2: "Alt(%d)" % m for m in range(5, 21)}


def _psl2_orders():
    out = {}
    for q in range(4, 1024):
        if not is_prime_power(q):
            continue
        order = q * (q * q - 1) // math.gcd(2, q - 1)
        out.setdefault(order, "PSL(2,%d)" % q)
    return out


_PSL2_ORDERS = _psl2_orders()
_SPORADIC_ORDERS = {7920: "M11", 95040: "M12"}


def simple_name(order):
    """Name a nonabelian simple group by order lookup against the catalog."""
    if order == 20160:
        return "Alt(8) or PSL(3,4)"
    if order in _ALT_ORDERS:
        return _ALT_ORDERS[order]
    if order in _SPORADIC_ORDERS:
        return _SPORADIC_ORDERS[order]
    if order in _PSL2_ORDERS:
        return _PSL2_ORDERS[order]
    return "simple of order %d" % order


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
    is the quotient series[i+1]/series[i].
    """
    Gi = as_indexed(G)
    factors = []
    series = [frozenset({Gi.identity_index})]
    _composition_rec(Gi, factors, series, lambda mask: mask)
    order_product = 1
    for f in factors:
        order_product *= f.order
    if order_product != Gi.n:
        raise RuntimeError("composition factor orders do not multiply to the group order")
    anabelian = not any(f.kind == "cyclic" for f in factors)
    return CompositionReport(group_order=Gi.n, factors=tuple(factors),
                             series=tuple(series), anabelian=anabelian)


def _composition_rec(Q, factors, series, lift):
    """Peel one minimal normal subgroup, then recurse on the quotient.

    `lift` maps an element mask of Q to one of the top group.
    """
    if Q.n == 1:
        return
    mins = _minimal_normals_with_gens(Q)
    M, Mgens = mins[0]
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
            series.append(_frozen(lift(current.mask)))
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
            series.append(_frozen(lift(_mask(Q, V.globals[current.mask]))))
        if current.size != size:
            raise RuntimeError("simple parts do not fill the minimal normal subgroup")
    QQ = QuotientGroup(Q, np.flatnonzero(M))
    _composition_rec(QQ, factors, series, lambda mask: lift(mask[QQ.labels]))


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
    """True for a direct product of nonabelian simple groups."""
    Gi = as_indexed(G)
    if Gi.n == 1:
        return False
    mins = _minimal_normals_with_gens(Gi)
    product = 1
    for S, gens in mins:
        if _gens_commute(Gi, gens):
            return False
        if not is_simple(SubgroupView(Gi, np.flatnonzero(S), gens)):
            return False
        product *= _size(S)
    if product != Gi.n:
        return False
    return True


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
    """
    value, factors = _lambda_rec(as_indexed(G))
    return LambdaReport(value=value, exact=True, factors=tuple(factors))


def _lambda_rec(Q):
    if is_solvable(Q):
        if Q.n > 1:
            return 0, [LambdaFactor("solvable group", Q.n, "solvable", False,
                                    "derived series reaches the identity")]
        return 0, []
    R = _radical_rec(Q)
    factors = []
    if _size(R) > 1:
        factors.append(LambdaFactor("solvable radical", _size(R), "solvable", False,
                                    "largest solvable normal subgroup"))
    QR = QuotientGroup(Q, np.flatnonzero(R))
    soc, _ = _socle(QR)
    layer = QuotientGroup(QR, np.flatnonzero(soc))
    factors.append(LambdaFactor("semisimple socle layer", _size(soc), "semisimple", True,
                                "product of nonabelian minimal normal subgroups"))
    upper_value, upper_factors = _lambda_rec(layer)
    return 1 + upper_value, factors + upper_factors


# ---------------------------------------------------------------------------
# series verification for large permutation groups

def _orbit_restriction(group, orbit):
    pos = {p: i for i, p in enumerate(orbit)}
    gens = [Permutation([pos[g(p)] for p in orbit]) for g in group.generators]
    return PermGroup(len(orbit), gens)


def _is_simple_nonabelian(group):
    Gi = as_indexed(group, cap=SEMISIMPLE_INDEX_CAP)
    return is_simple(Gi) and not _gens_commute(Gi, Gi.generator_indices)


def _certify_semisimple(group):
    """(ok, certificate) for a permutation group being semisimple.

    Small groups are checked on the element level. Larger ones use the
    orbit decomposition: when the orbit restrictions are simple nonabelian
    and their orders multiply to the group order, the group is their
    direct product.
    """
    if group.order() <= SEMISIMPLE_INDEX_CAP:
        if is_semisimple(group):
            return True, "element-level check: product of nonabelian simple minimal normals"
        return False, "element-level check failed"
    orbits = group.orbits()
    restrictions = [_orbit_restriction(group, o) for o in orbits]
    product = 1
    for r in restrictions:
        product *= r.order()
    if product != group.order():
        return False, "orbit restriction orders do not multiply to the group order"
    for r in restrictions:
        if not _is_simple_nonabelian(r):
            return False, "an orbit restriction is not simple nonabelian"
    return True, ("orbit decomposition: %d restrictions, simple nonabelian, "
                  "orders multiply to the group order" % len(restrictions))


def resolve_series_descriptor(G, descriptor):
    """Build the subgroup a series descriptor names. Returns (group, blocks).

    Descriptors: trivial | full | derived:k | block_kernel:<block size>.
    """
    d = descriptor.strip()
    if d == "trivial":
        return PermGroup(G.degree, []), None
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


def verify_series_lambda(G, descriptors):
    """Upper bound for the nonsolvable length from a user-supplied series.

    Each descriptor names a subgroup; the chain must ascend with each term
    normal in the next. Every factor is certified solvable or semisimple;
    the bound is the number of semisimple (hence nonsolvable) factors.
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
        ok = False
        if lo.order() == 1:
            ok, cert = _certify_semisimple(hi)
        elif blocks_of[i] is not None and hi.order() == G.order():
            image, _ = G.block_action(blocks_of[i])
            if image.order() != ratio:
                raise RuntimeError("block image order does not match the factor")
            ok, cert = _certify_semisimple(image)
            cert = "factor is the block-action image; " + cert
        elif hi.order() <= SEMISIMPLE_INDEX_CAP:
            Hi = as_indexed(hi)
            Q = QuotientGroup(Hi, Hi.index_of_rows(as_indexed(lo).rows))
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
