"""Scalar per-element reference algorithms for the indexed substrates.

These are the element-at-a-time loops the array engine replaced, kept as
the oracle for the differential tests: every product goes through scalar
`mul` and `inv`, and every set is a Python set.
"""

from anaburnside.catalog import factorize
from anaburnside.engine import PermGroup, Permutation


def column(G, j):
    return [G.mul(i, j) for i in range(G.n)]


def inverses(G):
    return [G.inv(i) for i in range(G.n)]


def conjugate(G, i, g):
    """g^-1 i g by scalar products."""
    return G.mul(G.mul(G.inv(g), i), g)


def subgroup_closure(G, gens, cap=None):
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


def normal_closure(G, seeds, cap=None, reject_supersets=(), conjugators=None):
    """(element set, generators), or None past `cap` or over a rejected set."""
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
                c = conjugate(G, h, g)
                if c not in S:
                    gens.append(c)
                    added = True
        if not added:
            return S, tuple(gens)


def conjugacy_classes(G):
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
                    y = conjugate(G, x, g)
                    if y not in orbit:
                        orbit.add(y)
                        new.append(y)
            frontier = new
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def coset_labels(parent, normal_indices):
    """(labels, reps) of the cosets N*i, coset ids by least element, or the
    ValueError message the quotient construction raises."""
    normal = sorted(set(normal_indices))
    if parent.identity_index not in normal:
        return "normal subgroup must contain the identity"
    if parent.n % len(normal):
        return "subgroup size does not divide the group order"
    labels = [-1] * parent.n
    reps = []
    for i in range(parent.n):
        if labels[i] >= 0:
            continue
        cid = len(reps)
        reps.append(i)
        for s in normal:
            labels[parent.mul(s, i)] = cid
    if len(reps) * len(normal) != parent.n:
        return "cosets do not partition the group"
    ident = labels[parent.identity_index]
    if any(labels[s] != ident for s in normal):
        return "indices are not closed under multiplication"
    normal_set = frozenset(normal)
    for g in parent.generator_indices:
        ginv = parent.inv(g)
        for s in normal:
            if parent.mul(parent.mul(g, s), ginv) not in normal_set:
                return "subgroup is not normal"
    return labels, reps


def minimal_normal_subgroups(G):
    """(frozenset, generators) pairs, sorted by size and then elements."""
    if G.n == 1:
        return []
    e = G.identity_index
    reps = []
    for cls in conjugacy_classes(G):
        rep = cls[0]
        if rep == e:
            continue
        order = G.order_of(rep)
        if factorize(order) == ((order, 1),):
            reps.append((len(cls), rep))
    reps.sort()
    found = []
    for _, rep in reps:
        if any(rep in S for S, _ in found):
            continue
        result = normal_closure(G, [rep], cap=G.n // 2,
                                reject_supersets=[S for S, _ in found])
        if result is not None:
            found.append(result)
    minimal = [(frozenset(S), gens) for S, gens in found
               if not any(len(T) < len(S) and T <= S for T, _ in found)]
    if not minimal:
        return [(frozenset(range(G.n)), tuple(G.generator_indices))]
    out = []
    for S, gens in sorted(minimal, key=lambda p: (len(p[0]), sorted(p[0]))):
        if S not in [T for T, _ in out]:
            out.append((S, gens))
    return out


def is_associative(table):
    """(x*y)*z == x*(y*z) for every triple of a table."""
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def table_error(table):
    """The ValueError message of the table checks before associativity, or
    None when the table passes them."""
    n = len(table)
    full = list(range(n))
    for i in range(n):
        if sorted(table[i]) != full or sorted(row[i] for row in table) != full:
            return "row/column %d is not a permutation" % i
    ident = [i for i in range(n) if all(table[i][j] == j for j in range(n))]
    if len(ident) != 1:
        return "table has no two-sided identity"
    e = ident[0]
    for i in range(n):
        hits = [j for j in range(n) if table[i][j] == e]
        if len(hits) != 1 or table[hits[0]][i] != e:
            return "element %d has no two-sided inverse" % i
    return None


def power_indexes(G, e):
    out = []
    for i in range(G.n):
        x = G.identity_index
        y = i if e >= 0 else G.inv(i)
        for _ in range(abs(e)):
            x = G.mul(x, y)
        out.append(x)
    return out


def perm_elements(group):
    """Breadth-first enumeration of a permutation group by right products
    with its generators, identity first."""
    result = [Permutation.identity(group.degree)]
    seen = {result[0].images}
    frontier = result
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.generators:
                y = x * g
                if y.images not in seen:
                    seen.add(y.images)
                    result.append(y)
                    nxt.append(y)
        frontier = nxt
    return result


def perm_normal_closure(group, seed_perms):
    """Normal closure on generators, rebuilding a group and its stabilizer
    chain from scratch for every conjugate it adds."""
    closure = PermGroup(group.degree, [g for g in seed_perms if not g.is_identity()],
                        degree_cap=group.degree)
    pending = list(closure.generators)
    while pending:
        h = pending.pop()
        for g in group.generators:
            c = g.inverse() * h * g
            if not closure.contains(c):
                closure = PermGroup(group.degree, closure.generators + [c],
                                    degree_cap=group.degree)
                pending.append(c)
    return closure
