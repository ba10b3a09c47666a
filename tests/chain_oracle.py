"""The stabilizer chain as first written, kept as the oracle for the chain
tests, and the groups those tests run on.

`RestartChain` completes a level by rescanning it from its first Schreier
generator after every insertion. Everything else is inherited from
`PermGroup`. Normal closures are checked against
`scalar_oracle.perm_normal_closure`.
"""

import contextlib

from anaburnside.engine import PermGroup

CHAIN_GROUPS = [
    # the permutation substrates of the indexed-array tests
    "symmetric(4)", "dihedral(6)", "alternating(5)", "wreath(symmetric(3),symmetric(2))",
    # the structure benchmark's groups
    "psl2(4)", "psl2(5)", "psl2(7)", "psl2(8)", "symmetric(5)",
    "direct_product(alternating(5),symmetric(4))",
    "direct_product(alternating(5),alternating(6))",
    "wreath(alternating(5),cyclic(2))", "wreath(symmetric(4),cyclic(3))",
    "wreath(alternating(5),alternating(5))", "wreath(alternating(5),symmetric(3))",
    "wreath(alternating(6),cyclic(2))",
    # the Sym(5) family
    "wreath(symmetric(5),cyclic(2))", "direct_product(symmetric(5),symmetric(5))",
    # the rest of the analyzer's witness pool
    "alternating(6)", "alternating(7)", "alternating(8)", "alternating(9)",
    "psl2(9)", "psl2(11)",
    # past the index cap, with a derived series of seven terms
    "wreath(symmetric(4),symmetric(4))",
]


class RestartChain(PermGroup):
    def _complete_level(self, level):
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


def rebuilt(group, cls=RestartChain):
    """A new group of class `cls` with the generators and base hint of
    `group`, its chain not yet built."""
    twin = cls(group.degree, group.generators, degree_cap=group.degree)
    twin.set_base_hint(group._base_hint)
    return twin


def chain_data(group):
    """Base points, strong generators and transversals, level by level."""
    return [(lv.point, list(lv.gens), list(lv.transversal.items()))
            for lv in group._chain()]


@contextlib.contextmanager
def counting_sifts():
    """Count every sift (`PermGroup._strip` call) made inside the block."""
    count = [0]
    strip = PermGroup._strip

    def counted(self, level, g):
        count[0] += 1
        return strip(self, level, g)

    PermGroup._strip = counted
    try:
        yield count
    finally:
        PermGroup._strip = strip
