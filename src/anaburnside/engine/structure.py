"""Normal structure: composition factors, radicals, and series verification."""

import math
from dataclasses import dataclass, field

from ..catalog import factorize, is_prime_power
from ..errors import CapExceeded
from .indexed import QuotientGroup, SubgroupView, as_indexed
from .perm import PermGroup, Permutation

LAMBDA_CERTIFY_CAP = 5_000
SEMISIMPLE_INDEX_CAP = 30_000
_LATTICE_CAP = 512


# ---------------------------------------------------------------------------
# index-level subgroup machinery

def subgroup_closure(G, gens, cap=None):
    """Elements of <gens> by breadth-first products; None once past `cap`."""
    e = G.identity_index
    seen = {e}
    frontier = [e]
    gens = [g for g in gens if g != e]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = G.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if cap is not None and len(seen) > cap:
                        return None
        frontier = new
    return seen


def normal_closure_indexed(G, seeds, cap=None, reject_supersets=(), conjugators=None):
    """Closure of the seeds under multiplication and conjugation by
    `conjugators` (default: the group's generators), with its generator list.

    Returns (element set, generators) or None when the closure passes `cap`
    or is seen to strictly contain a set from `reject_supersets` (used to
    discard provably non-minimal candidates early).
    """
    if conjugators is None:
        conjugators = G.generator_indices
    e = G.identity_index
    gens = []
    for s in seeds:
        if s != e and s not in gens:
            gens.append(s)
    if not gens:
        return {e}, ()
    while True:
        S = subgroup_closure(G, gens, cap=cap)
        if S is None:
            return None
        for other in reject_supersets:
            if len(S) > len(other) and other <= S:
                return None
        added = False
        for h in list(gens):
            for g in conjugators:
                c = G.conjugate(h, g)
                if c not in S:
                    gens.append(c)
                    added = True
        if not added:
            return S, tuple(gens)


def conjugacy_classes(G):
    """Conjugacy classes as sorted lists, ordered by least element."""
    seen = set()
    classes = []
    for i in range(G.n):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            new = []
            for x in frontier:
                for g in G.generator_indices:
                    y = G.conjugate(x, g)
                    if y not in orbit:
                        orbit.add(y)
                        new.append(y)
            frontier = new
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def _gens_commute(G, gens):
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if G.mul(a, b) != G.mul(b, a):
                return False
    return True


def _minimal_normals_with_gens(G):
    """Minimal normal subgroups as (element set, generators) pairs.

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
    for cls in conjugacy_classes(G):
        rep = cls[0]
        if rep == e:
            continue
        order = G.order_of(rep)
        if factorize(order) == ((order, 1),):  # prime order
            reps.append((len(cls), rep))
    reps.sort()
    found = []
    for _, rep in reps:
        if any(rep in S for S, _ in found):
            continue
        result = normal_closure_indexed(
            G, [rep], cap=G.n // 2, reject_supersets=[S for S, _ in found])
        if result is not None:
            found.append((result[0], result[1]))
    minimal = []
    for S, gens in found:
        if not any(len(T) < len(S) and T <= S for T, _ in found):
            minimal.append((frozenset(S), gens))
    if not minimal:
        full = frozenset(range(G.n))
        return [(full, tuple(G.generator_indices))]
    out = []
    seen = set()
    for S, gens in sorted(minimal, key=lambda p: (len(p[0]), sorted(p[0]))):
        if S not in seen:
            seen.add(S)
            out.append((S, gens))
    return out


def minimal_normal_subgroups(G):
    """Minimal normal subgroups as frozensets of element indexes."""
    Gi = as_indexed(G)
    return [S for S, _ in _minimal_normals_with_gens(Gi)]


def derived_series_sets(G):
    """Descending derived series as element sets, stopping when stable."""
    Gi = as_indexed(G)
    series = [(set(range(Gi.n)), tuple(Gi.generator_indices))]
    while True:
        ambient = series[-1][1]
        comms = [Gi.mul(Gi.mul(Gi.inv(a), Gi.inv(b)), Gi.mul(a, b))
                 for i, a in enumerate(ambient) for b in ambient[i + 1:]]
        S, gens = normal_closure_indexed(Gi, comms, conjugators=ambient)
        if len(S) == len(series[-1][0]):
            break
        series.append((S, gens))
        if len(S) == 1:
            break
    return [frozenset(S) for S, _ in series]


def is_solvable(G):
    if isinstance(G, PermGroup):
        return G.is_solvable()
    return len(derived_series_sets(G)[-1]) == 1


def derived_series(G):
    """Derived series; permutation groups stay permutation groups."""
    if isinstance(G, PermGroup):
        return G.derived_series()
    return derived_series_sets(G)


def solvable_radical(G):
    """Largest solvable normal subgroup, as a frozenset of indexes."""
    Gi = as_indexed(G)
    return _radical_rec(Gi)


def _radical_rec(Q):
    if is_solvable(Q):
        return frozenset(range(Q.n))
    abelian = []
    for S, gens in _minimal_normals_with_gens(Q):
        if _gens_commute(Q, gens):
            abelian.append((S, gens))
    if not abelian:
        return frozenset({Q.identity_index})
    seeds = [g for _, gens in abelian for g in gens]
    N, _ = normal_closure_indexed(Q, seeds)
    QQ = QuotientGroup(Q, N)
    upper = _radical_rec(QQ)
    return frozenset(QQ.preimage(upper))


def socle(G):
    """Product of the minimal normal subgroups, as (set, gens)."""
    Gi = as_indexed(G)
    mins = _minimal_normals_with_gens(Gi)
    if not mins:
        return frozenset({Gi.identity_index}), ()
    seeds = [g for _, gens in mins for g in gens]
    S, gens = normal_closure_indexed(Gi, seeds)
    return frozenset(S), gens


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

    def lift_identity(s):
        return frozenset(s)

    _composition_rec(Gi, factors, series, lift_identity)
    order_product = 1
    for f in factors:
        order_product *= f.order
    if order_product != Gi.n:
        raise RuntimeError("composition factor orders do not multiply to the group order")
    anabelian = not any(f.kind == "cyclic" for f in factors)
    return CompositionReport(group_order=Gi.n, factors=tuple(factors),
                             series=tuple(series), anabelian=anabelian)


def _composition_rec(Q, factors, series, lift):
    """Peel one minimal normal subgroup, then recurse on the quotient."""
    if Q.n == 1:
        return
    mins = _minimal_normals_with_gens(Q)
    M, Mgens = mins[0]
    if _gens_commute(Q, Mgens):
        p = Q.order_of(Mgens[0])
        current = {Q.identity_index}
        cur_gens = []
        ordered = sorted(M)
        while len(current) < len(M):
            x = min(i for i in ordered if i not in current)
            cur_gens.append(x)
            prev = len(current)
            current = subgroup_closure(Q, cur_gens)
            if len(current) != prev * p:
                raise RuntimeError("abelian layer step is not of prime index")
            factors.append(CompositionFactor("cyclic", p, "C_%d" % p))
            series.append(lift(frozenset(current)))
    else:
        V = SubgroupView(Q, sorted(M), Mgens)
        parts = _minimal_normals_with_gens(V)
        current = {V.identity_index}
        cur_gens = []
        for S, Sgens in parts:
            prev_size = len(current)
            cur_gens.extend(Sgens)
            current = subgroup_closure(V, cur_gens)
            if len(current) != prev_size * len(S):
                raise RuntimeError("semisimple layer is not a direct product of its parts")
            name = simple_name(len(S))
            factors.append(CompositionFactor("nonabelian", len(S), name))
            series.append(lift(frozenset(V.globals[i] for i in current)))
        if len(current) != len(M):
            raise RuntimeError("simple parts do not fill the minimal normal subgroup")
    QQ = QuotientGroup(Q, M)

    def lift2(s):
        return lift(QQ.preimage(s))

    _composition_rec(QQ, factors, series, lift2)


def is_simple(G):
    """Simple: the only nontrivial normal subgroup is the whole group."""
    Gi = as_indexed(G)
    if Gi.n == 1:
        return False
    mins = _minimal_normals_with_gens(Gi)
    return len(mins) == 1 and len(mins[0][0]) == Gi.n


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
        if not is_simple(SubgroupView(Gi, sorted(S), gens)):
            return False
        product *= len(S)
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


def nonsolvable_length(G, certify_cap=LAMBDA_CERTIFY_CAP):
    """Minimal number of nonsolvable layers in a normal series.

    Values 0 and 1 are exact by definition (0 iff solvable). Larger values
    are certified by an exhaustive normal-subgroup search only below
    `certify_cap`; otherwise the canonical radical-socle value is reported
    as an upper bound.
    """
    Gi = as_indexed(G)
    value, factors = _lambda_rec(Gi)
    notes = []
    exact = True
    if value >= 2:
        if Gi.n <= certify_cap:
            best = _lambda_exhaustive(Gi)
            if best < value:
                value = best
                notes.append("exhaustive search found a shorter series")
            notes.append("certified by exhaustive normal-subgroup search")
        else:
            exact = False
            notes.append("order %d exceeds certify cap %d; value is an upper bound"
                         % (Gi.n, certify_cap))
    return LambdaReport(value=value, exact=exact, factors=tuple(factors),
                        notes=tuple(notes))


def _lambda_rec(Q):
    if is_solvable(Q):
        if Q.n > 1:
            return 0, [LambdaFactor("solvable group", Q.n, "solvable", False,
                                    "derived series reaches the identity")]
        return 0, []
    R = _radical_rec(Q)
    factors = []
    if len(R) > 1:
        factors.append(LambdaFactor("solvable radical", len(R), "solvable", False,
                                    "largest solvable normal subgroup"))
    QR = QuotientGroup(Q, R)
    soc, _ = socle(QR)
    layer = QuotientGroup(QR, soc)
    factors.append(LambdaFactor("semisimple socle layer", len(soc), "semisimple", True,
                                "product of nonabelian minimal normal subgroups"))
    upper_value, upper_factors = _lambda_rec(layer)
    return 1 + upper_value, factors + upper_factors


def _lambda_exhaustive(G):
    """Shortest alternating series over the full normal subgroup lattice."""
    normals = _all_normal_subgroups(G)
    order = sorted(normals, key=lambda s: (len(s), sorted(s)))
    full = frozenset(range(G.n))
    trivial = frozenset({G.identity_index})
    best = {trivial: 0}
    for M in order:
        for N in order:
            if len(N) >= len(M) or N not in best or not N <= M:
                continue
            w = _factor_weight(G, M, N)
            if w is None:
                continue
            cand = best[N] + w
            if cand < best.get(M, 1 << 30):
                best[M] = cand
    if full not in best:
        raise RuntimeError("no alternating series found; lattice incomplete")
    return best[full]


def _factor_weight(G, M, N):
    V = SubgroupView(G, sorted(M))
    Nloc = [V.to_local(i) for i in N]
    Q = QuotientGroup(V, Nloc)
    if is_solvable(Q):
        return 0
    if is_semisimple(Q):
        return 1
    return None


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
            lo_set = {Hi.index_of(p) for p in lo.elements()}
            Q = QuotientGroup(Hi, lo_set)
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


def _all_normal_subgroups(G):
    """Every normal subgroup: class closures, closed under pairwise join."""
    trivial = frozenset({G.identity_index})
    full = frozenset(range(G.n))
    closures = {trivial, full}
    gens_of = {trivial: (), full: tuple(G.generator_indices)}
    for cls in conjugacy_classes(G):
        rep = cls[0]
        if rep == G.identity_index:
            continue
        S, gens = normal_closure_indexed(G, [rep])
        fs = frozenset(S)
        closures.add(fs)
        gens_of.setdefault(fs, gens)
    frontier = list(closures)
    while frontier:
        if len(closures) > _LATTICE_CAP:
            raise CapExceeded("normal subgroup lattice exceeds %d" % _LATTICE_CAP)
        new = []
        for A in frontier:
            for B in list(closures):
                if A <= B or B <= A:
                    continue
                seeds = list(gens_of[A]) + list(gens_of[B])
                S, gens = normal_closure_indexed(G, seeds)
                fs = frozenset(S)
                if fs not in closures:
                    closures.add(fs)
                    gens_of[fs] = gens
                    new.append(fs)
        frontier = new
    return closures
