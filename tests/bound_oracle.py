"""Literal reference evaluations of the bound stages.

These are the step-by-step loops the bound pipeline replaced, kept as the
oracle for the differential tests: the anabelian recursion one tower
product per step with no settled-regime jump, each Lie grid as one tower
product per grid point with no log-space sum, and the grid's q cutoff by
probing q = 1, 2, ... in turn.
"""

from mpmath import mp

from anaburnside.bounds import _grid_rank_cap, _scale_part
from anaburnside.catalog import FAMILY_ORDER, admissible_q_values, b_value, family_ranks
from anaburnside.towers import (big_E, exp_t, from_real, get_precision, ln_t, mul_t,
                                pow_t, tower, working_precision)

_ONE = tower(0, 1)


def largest_admissible_q(length, exponent):
    """Largest q with q**exponent <= length, probing every q from 1 up."""
    q = 1
    with mp.workdps(get_precision()):
        limit = mp.mpf(length) * (1 + mp.mpf(10) ** (20 - get_precision()))
        while mp.power(q + 1, exponent) <= limit:
            q += 1
    return q


def recursion_series(p, k_max):
    """B(k, d) for k = 1..k_max, three tower products per step."""
    with working_precision(p.config.precision):
        scale = from_real(_scale_part(p))
        d_t = from_real(p.d)
        recursive = _ONE
        out = []
        for _ in range(k_max):
            layer = big_E(2, mul_t(scale, d_t))
            recursive = mul_t(recursive, layer)
            d_t = mul_t(d_t, layer)
            out.append(recursive)
    return out


def grid_fold(p):
    """Each family's grid product, one tower product per grid point."""
    grids = {}
    with working_precision(p.config.precision):
        for family in FAMILY_ORDER:
            product = _ONE
            for k in family_ranks(family, _grid_rank_cap(p)):
                q_cap = largest_admissible_q(p.length, p.config.c1 * k)
                for q in admissible_q_values(family, q_cap):
                    qb = pow_t(from_real(q), b_value(family, k))
                    term = exp_t(mul_t(pow_t(qb, p.d), ln_t(qb)))
                    product = mul_t(product, term)
            grids[family] = product
    return grids
