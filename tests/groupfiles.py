"""Shared group lists for the tests: the permutation substrates, the
benchmark's structure groups, every indexed substrate by name, the Sym(5)
family with its normal structure, and builders for groups the descriptor
language does not cover."""

import functools
import itertools
import json
import random

import scalar_oracle as oracle
from anaburnside.engine import (CyclicGroup, PairGroup, QuotientGroup, SubgroupView, TableGroup,
                                alternating, as_indexed, dihedral, symmetric, wreath)

# the permutation groups among the indexed substrates, as PermGroup factories
PERM_GROUPS = {
    "perm_s4": lambda: symmetric(4),
    "perm_d6": lambda: dihedral(6),
    "perm_a5": lambda: alternating(5),
    "perm_s3wr2": lambda: wreath(symmetric(3), symmetric(2)),
}

# the groups of the benchmark's structure workload
WORKLOAD_GROUPS = (
    "psl2(4)", "psl2(5)", "psl2(7)", "psl2(8)", "symmetric(5)",
    "direct_product(alternating(5),symmetric(4))",
    "direct_product(alternating(5),alternating(6))",
    "wreath(alternating(5),cyclic(2))",
    "wreath(symmetric(4),cyclic(3))",
)


def sl25_table():
    """Multiplication table of SL(2,5): 2x2 matrices over GF(5), det 1."""
    elements = []
    index = {}
    for a, b, c, d in itertools.product(range(5), repeat=4):
        if (a * d - b * c) % 5 == 1:
            index[(a, b, c, d)] = len(elements)
            elements.append((a, b, c, d))
    assert len(elements) == 120
    table = []
    for r in elements:
        row = []
        for s in elements:
            prod = (
                (r[0] * s[0] + r[1] * s[2]) % 5,
                (r[0] * s[1] + r[1] * s[3]) % 5,
                (r[2] * s[0] + r[3] * s[2]) % 5,
                (r[2] * s[1] + r[3] * s[3]) % 5,
            )
            row.append(index[prod])
        table.append(row)
    return table


def sl25_group():
    return TableGroup(sl25_table())


def write_table_file(path, table):
    with open(path, "w") as fh:
        json.dump({"order": len(table), "table": table}, fh)


def write_perm_file(path, degree, generators_one_based):
    with open(path, "w") as fh:
        json.dump({"degree": degree, "generators": generators_one_based}, fh)


def _relabelled_table(group, seed):
    """Cayley table of a permutation group under a seeded relabelling, so
    that the identity is not element 0."""
    elements = sorted(group.elements(), key=lambda p: p.images)
    random.Random(seed).shuffle(elements)
    index = {p: i for i, p in enumerate(elements)}
    return TableGroup([[index[a * b] for b in elements] for a in elements])


def _cyclic_table(n):
    return TableGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def _semidirect_c7_c3():
    def act(h, x):
        return (x * pow(2, h, 7)) % 7
    return PairGroup(_cyclic_table(7), _cyclic_table(3), action=act)


def _alternating_in_symmetric(m):
    sym = as_indexed(symmetric(m))
    even = [i for i in range(sym.n)
            if sum(len(c) - 1 for c in sym.perm_of(i).cycles()) % 2 == 0]
    return SubgroupView(sym, even)


def _klein_quotient():
    s4 = as_indexed(symmetric(4))
    v4 = [i for i in range(s4.n)
          if sorted(len(c) for c in s4.perm_of(i).cycles()) in ([], [2, 2])]
    return QuotientGroup(s4, v4)


def _sl25_mod_center():
    g = sl25_group()
    center = [i for i in range(g.n) if g.order_of(i) <= 2]
    return QuotientGroup(g, center)


def _quotient_of_view():
    s3wr = as_indexed(wreath(symmetric(3), symmetric(2)))
    base = oracle.normal_closure(s3wr, [s3wr.generator_indices[0]])[0]
    view = SubgroupView(s3wr, base)
    inner = oracle.normal_closure(view, [view.generator_indices[0]])[0]
    return QuotientGroup(view, inner)


# every indexed substrate, built by name
BUILDERS = {
    **{name: (lambda build=build: as_indexed(build())) for name, build in PERM_GROUPS.items()},
    "table_c12": lambda: _cyclic_table(12),
    "table_s4_relabelled": lambda: _relabelled_table(symmetric(4), 7),
    "table_sl25": sl25_group,
    "cyclic_20": lambda: CyclicGroup(20),
    "quotient_s4_v4": _klein_quotient,
    "quotient_sl25_center": _sl25_mod_center,
    "quotient_of_view": _quotient_of_view,
    "view_a4_in_s4": lambda: _alternating_in_symmetric(4),
    "view_a5_in_s5": lambda: _alternating_in_symmetric(5),
    "pair_c3_c4": lambda: PairGroup(_cyclic_table(3), _cyclic_table(4)),
    "pair_c7_c3": _semidirect_c7_c3,
    "pair_s3_c2": lambda: PairGroup(_relabelled_table(symmetric(3), 3), _cyclic_table(2)),
}


@functools.lru_cache(maxsize=None)
def substrate(name):
    return BUILDERS[name]()


# group, minimal normal subgroup orders, socle order, lambda factors as
# (kind, order), composition factor names with multiplicity
S5_FAMILY = {
    "direct_product(symmetric(5),cyclic(2))": (
        [2, 60], 120, [("solvable", 2), ("semisimple", 60), ("solvable", 2)],
        {"Alt(5)": 1, "C_2": 2}),
    "direct_product(symmetric(5),symmetric(3))": (
        [3, 60], 180, [("solvable", 6), ("semisimple", 60), ("solvable", 2)],
        {"Alt(5)": 1, "C_2": 2, "C_3": 1}),
    "direct_product(symmetric(5),alternating(5))": (
        [60, 60], 3600, [("semisimple", 3600), ("solvable", 2)],
        {"Alt(5)": 2, "C_2": 1}),
    "direct_product(symmetric(5),symmetric(5))": (
        [60, 60], 3600, [("semisimple", 3600), ("solvable", 4)],
        {"Alt(5)": 2, "C_2": 2}),
    "wreath(symmetric(5),cyclic(2))": (
        [3600], 3600, [("semisimple", 3600), ("solvable", 8)],
        {"Alt(5)": 2, "C_2": 3}),
}
