"""The recursive normal-structure walks the quotient loops replaced.

These are the earlier recursions for the solvable radical, the socle, the
radical-socle series and the composition series, the per-part
semisimplicity test, and the two-rule semisimplicity certificate of
permutation groups with its own index cap. They are kept as the oracle for the differential tests
of `engine.structure`. They share its minimal normal subgroups, its normal
closures and its quotients, which have their own differential tests; what
they check is the walk: each recursion tests solvability at every level,
finds a quotient's minimal normal subgroups again for its socle, pulls masks
back through nested `lift` maps, and ends on a quotient by the whole group.

Per-kind order tables for naming composition factors, and the analyzer's
witness pool as a plain list, are kept as the oracle for the catalog's one
table of the simple groups the tool knows; the composition walk names its
factors by them.
"""

import numpy as np

from anaburnside.catalog import AltId, admissible_q_values, exact_order, psl2
from anaburnside.engine import QuotientGroup, SubgroupView, as_indexed
from anaburnside.engine.indexed import Closure
from anaburnside.engine.structure import (
    CompositionFactor,
    LambdaFactor,
    _frozen,
    _gens_commute,
    _mask,
    _minimal_normals_with_gens,
    _size,
    normal_closure_indexed,
)

SEMISIMPLE_INDEX_CAP = 30_000


def _derived_masks(Gi):
    series = [(np.ones(Gi.n, dtype=bool), tuple(Gi.generator_indices))]
    while True:
        ambient = series[-1][1]
        comms = [Gi.mul(Gi.mul(Gi.inv(a), Gi.inv(b)), Gi.mul(a, b))
                 for i, a in enumerate(ambient) for b in ambient[i + 1:]]
        S, gens = normal_closure_indexed(Gi, comms)
        if _size(S) == _size(series[-1][0]):
            break
        series.append((S, gens))
        if _size(S) == 1:
            break
    return [S for S, _ in series]


def is_solvable(Gi):
    return _size(_derived_masks(Gi)[-1]) == 1


def radical(Q):
    """Mask of the solvable radical."""
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
    return radical(QQ)[QQ.labels]


def socle(Gi):
    """(mask, generators) of the product of the minimal normal subgroups."""
    mins = _minimal_normals_with_gens(Gi)
    if not mins:
        return _mask(Gi, [Gi.identity_index]), ()
    seeds = [g for _, gens in mins for g in gens]
    return normal_closure_indexed(Gi, seeds)


def nonsolvable_length(Q):
    """(value, factors) of the radical-socle series."""
    if is_solvable(Q):
        if Q.n > 1:
            return 0, [LambdaFactor("solvable group", Q.n, "solvable", False,
                                    "derived series reaches the identity")]
        return 0, []
    R = radical(Q)
    factors = []
    if _size(R) > 1:
        factors.append(LambdaFactor("solvable radical", _size(R), "solvable", False,
                                    "largest solvable normal subgroup"))
    QR = QuotientGroup(Q, np.flatnonzero(R))
    soc, _ = socle(QR)
    layer = QuotientGroup(QR, np.flatnonzero(soc))
    factors.append(LambdaFactor("semisimple socle layer", _size(soc), "semisimple", True,
                                "product of nonabelian minimal normal subgroups"))
    upper_value, upper_factors = nonsolvable_length(layer)
    return 1 + upper_value, factors + upper_factors


def composition(Gi):
    """(factors, series) as `composition_report` gives them."""
    factors = []
    series = [frozenset({Gi.identity_index})]
    _composition_rec(Gi, factors, series, lambda mask: mask)
    return factors, series


def _composition_rec(Q, factors, series, lift):
    """Peel one minimal normal subgroup, then recurse on the quotient.

    `lift` maps an element mask of Q to one of the top group.
    """
    if Q.n == 1:
        return
    M, Mgens = _minimal_normals_with_gens(Q)[0]
    size = _size(M)
    if _gens_commute(Q, Mgens):
        p = Q.order_of(Mgens[0])
        current = Closure(Q)
        while current.size < size:
            current.add(int(np.flatnonzero(M & ~current.mask)[0]))
            factors.append(CompositionFactor("cyclic", p, "C_%d" % p))
            series.append(_frozen(lift(current.mask)))
    else:
        V = SubgroupView(Q, np.flatnonzero(M), Mgens)
        current = Closure(V)
        for S, Sgens in _minimal_normals_with_gens(V):
            for g in Sgens:
                current.add(g)
            factors.append(CompositionFactor("nonabelian", _size(S), simple_name(_size(S))))
            series.append(_frozen(lift(_mask(Q, V.globals[current.mask]))))
    QQ = QuotientGroup(Q, np.flatnonzero(M))
    _composition_rec(QQ, factors, series, lambda mask: lift(mask[QQ.labels]))


def is_simple(Gi):
    if Gi.n == 1:
        return False
    mins = _minimal_normals_with_gens(Gi)
    return len(mins) == 1 and _size(mins[0][0]) == Gi.n


def is_semisimple(Gi):
    """Each minimal normal subgroup nonabelian and simple as a group of its
    own, with orders multiplying to |G|."""
    if Gi.n == 1:
        return False
    product = 1
    for S, gens in _minimal_normals_with_gens(Gi):
        if _gens_commute(Gi, gens):
            return False
        if not is_simple(SubgroupView(Gi, np.flatnonzero(S), gens)):
            return False
        product *= _size(S)
    return product == Gi.n


def _is_simple_nonabelian(group):
    Gi = as_indexed(group, cap=SEMISIMPLE_INDEX_CAP)
    return is_simple(Gi) and not _gens_commute(Gi, Gi.generator_indices)


def certify_semisimple(group):
    """(ok, certificate) for a permutation group being semisimple.

    Small groups are checked on the element level. Larger ones use the
    orbit decomposition: when the orbit restrictions are simple nonabelian
    and their orders multiply to the group order, the group is their
    direct product.
    """
    if group.order() <= SEMISIMPLE_INDEX_CAP:
        if is_semisimple(as_indexed(group)):
            return True, "element-level check: product of nonabelian simple minimal normals"
        return False, "element-level check failed"
    orbits = group.orbits()
    restrictions = [group.block_action([[p] for p in o])[0] for o in orbits]
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


ALT_ORDERS = {exact_order(AltId(m)): "Alt(%d)" % m for m in range(5, 21)}


def _psl2_orders():
    out = {}
    for q in admissible_q_values("A", 1023):
        if q >= 4:
            out.setdefault(exact_order(psl2(q)), "PSL(2,%d)" % q)
    return out


PSL2_ORDERS = _psl2_orders()
SPORADIC_ORDERS = {7920: "M11", 95040: "M12"}

# (builder, argument, name) of each witness candidate, in report order
POOL = tuple([("alternating", m, "Alt(%d)" % m) for m in range(5, 10)]
             + [("psl2", q, "PSL(2,%d)" % q) for q in (4, 5, 7, 8, 9, 11)])


def simple_name(order):
    """Name of a nonabelian simple group of this order, from the order tables."""
    if order == 20160:
        return "Alt(8) or PSL(3,4)"
    for table in (ALT_ORDERS, SPORADIC_ORDERS, PSL2_ORDERS):
        if order in table:
            return table[order]
    return "simple of order %d" % order
