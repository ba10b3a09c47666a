"""Shared group lists and builders for groups the descriptor language does
not cover."""

import itertools
import json

from anaburnside.engine import TableGroup, alternating, dihedral, symmetric, wreath

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
