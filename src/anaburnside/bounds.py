"""Explicit size bounds for anabelian quotients, in tower arithmetic.

Stages: an alternating-groups product bound, per-family Lie-type grid
products with a closed overestimate, a sporadic factor, the semisimple
product, and the recursion that climbs one nonsolvable layer per step.
All values are TowerNumbers; every constant in play is echoed in the
report so no figure is presented as absolute.
"""

import math
from dataclasses import dataclass

from mpmath import mp

from .catalog import FAMILY_ORDER, admissible_q_values, b_value, family_ranks
from .config import Config
from .towers import (CHEAP_MAG, ONE, TowerNumber, _real, big_E, cmp_t,
                     exp_t, from_real, get_precision, ln_t, mul_t, parse_tower,
                     pow_t, render_tower, working_precision)
from .words import Word, word_length


@dataclass(frozen=True)
class BoundParams:
    """Rank d, law length, nonsolvable length k, and the constant set."""

    d: int
    length: int
    k: int = 1
    config: Config = Config()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        if self.length < 2:
            raise ValueError("law length must be at least 2")
        if self.k < 1:
            raise ValueError("nonsolvable length must be positive")


def _scale_part(p: BoundParams, d: int = 1):
    """c*d*length*ln(length) at working precision: the d-free part of the
    recursion seed by default, the seed x_d itself with d = p.d. Floats
    would smear the last bits across every exp that follows."""
    with working_precision(p.config.precision):
        return mp.mpf(p.config.c) * d * p.length * mp.ln(p.length)


def alt_product_bound(p: BoundParams) -> TowerNumber:
    """Product bound over alternating groups: exp(l^2 ln(l) exp(d l ln(l)))."""
    with working_precision(p.config.precision):
        lnl = mp.ln(p.length)
        inner_arg = p.d * p.length * lnl
        outer_arg = p.length ** 2 * lnl
        return exp_t(mul_t(from_real(outer_arg), exp_t(from_real(inner_arg))))


@dataclass(frozen=True)
class LieBounds:
    """Closed overestimate plus the explicit per-family grid products."""

    closed: TowerNumber
    grids: dict
    grid_total: TowerNumber


def _grid_rank_cap(p: BoundParams) -> int:
    # floor of c2*ln(l), but never below 1 so the shortest laws still
    # admit the rank-1 groups PSL(2,q)
    return max(1, math.floor(p.config.c2 * math.log(p.length)))


def _largest_admissible_q(length: int, exponent: float) -> int:
    """Largest q with q**exponent <= length, by exact integer comparison.

    Float powers round cases such as 64**(1/3) below the true value, which
    would silently drop a grid point, so a root estimate only says where to
    start: the cutoff itself is found by stepping with the exact predicate.
    """
    with mp.workdps(get_precision()):
        limit = mp.mpf(length) * (1 + mp.mpf(10) ** (20 - get_precision()))

        def fits(q):
            return mp.power(q, exponent) <= limit

        q = max(1, int(mp.exp(mp.ln(length) / exponent)))
        while q > 1 and not fits(q):
            q -= 1
        while fits(q + 1):
            q += 1
    return q


def _grid_term(family: str, k: int, q: int, d: int) -> TowerNumber:
    """One grid factor (q^b)^((q^b)^d), b = b(family, k), in tower arithmetic."""
    qb = pow_t(from_real(q), b_value(family, k))
    return exp_t(mul_t(pow_t(qb, d), ln_t(qb)))


def _family_grid(p: BoundParams, family: str) -> TowerNumber:
    """Product of the family's grid factors over ranks k with q^(c1*k) <= l.

    ln of each factor is (q^b)^d * b * ln q, and those logarithms are summed
    as one real while both the sum and the next term stay below CHEAP_MAG
    magnitude. In that regime every tower product of the factor-by-factor
    fold takes its exact branch, so the sum is the same value, canonicalized
    once instead of through several tower operations per factor. From the
    first term outside it the fold runs factor by factor, so the inexact
    flags fall where they always did.
    """
    log_sum = mp.mpf(0)
    product = None
    for k in family_ranks(family, _grid_rank_cap(p)):
        b = b_value(family, k)
        q_cap = _largest_admissible_q(p.length, p.config.c1 * k)
        for q in admissible_q_values(family, q_cap):
            if product is None:
                log_term = mp.power(q, b * p.d) * b * mp.ln(q)
                if mp.mag(log_sum) <= CHEAP_MAG and mp.mag(log_term) <= CHEAP_MAG:
                    log_sum += log_term
                    continue
                product = exp_t(from_real(log_sum))
            product = mul_t(product, _grid_term(family, k, q, p.d))
    return exp_t(from_real(log_sum)) if product is None else product


def lie_product_bound(p: BoundParams) -> LieBounds:
    """Lie-type stage: closed form exp(c3 ln(l)^3 exp(l^(c4 d ln l))) and,
    per family, the grid product of (q^b)^((q^b)^d) over ranks k with
    q^(c1*k) <= l and k at most about c2*ln(l)."""
    with working_precision(p.config.precision):
        lnl = mp.ln(p.length)
        cube_arg = p.config.c3 * lnl ** 3
        tower_arg = p.config.c4 * p.d * lnl ** 2
        closed = exp_t(mul_t(from_real(cube_arg),
                             exp_t(exp_t(from_real(tower_arg)))))
        grids = {}
        total = ONE
        for family in FAMILY_ORDER:
            grids[family] = _family_grid(p, family)
            total = mul_t(total, grids[family])
    return LieBounds(closed, grids, total)


@dataclass(frozen=True)
class SemisimpleBounds:
    """Literal product over the classification versus the normalized form,
    with the alternating, Lie and sporadic stages the product was built from.

    The two are not comparable pointwise: the normalized E_2(c d l ln l)
    absorbs unspecified constants, so at small parameters the literal
    product exceeds it. Both are reported; the recursion consumes the
    normalized form.
    """

    product: TowerNumber
    normalized: TowerNumber
    alternating: TowerNumber
    lie: LieBounds
    sporadic: TowerNumber


def sporadic_factor(p: BoundParams) -> TowerNumber:
    """One shared order placeholder for the 26 sporadic groups, to the d."""
    with working_precision(p.config.precision):
        return pow_t(parse_tower(p.config.sporadic_max), p.d)


def semisimple_bound(p: BoundParams) -> SemisimpleBounds:
    """Bound for semisimple groups with a d-generated law-l quotient source:
    alternating stage times every Lie family grid times the sporadic factor."""
    alt, lie, spor = alt_product_bound(p), lie_product_bound(p), sporadic_factor(p)
    with working_precision(p.config.precision):
        product = mul_t(mul_t(alt, lie.grid_total), spor)
        # built exactly as the k=1 recursion layer, so the two stay comparable
        normalized = big_E(2, mul_t(from_real(_scale_part(p)), from_real(p.d)))
    return SemisimpleBounds(product, normalized, alt, lie, spor)


@dataclass(frozen=True)
class AnabelianBounds:
    recursive: TowerNumber
    closed: TowerNumber


def anabelian_bound(p: BoundParams) -> AnabelianBounds:
    """Recursive bound B(k, d) = B(k-1, d*E_2(x_d))*E_2(x_d) with
    x_d = c*d*l*ln(l) and B(0, .) = 1, against the closed form E_2k(2x).

    Each step strips one nonsolvable layer: the index of the relevant
    subgroup is at most E_2(x_d), Schreier's theorem regenerates it with
    at most d*E_2(x_d) elements, and the product telescopes.
    """
    with working_precision(p.config.precision):
        head, settled = _recursion(p, p.k)
        return AnabelianBounds(_recursive_at(head, settled, p.k),
                               big_E(2 * p.k, from_real(2 * _scale_part(p, p.d))))


def anabelian_bound_series(p: BoundParams, k_max: int) -> list:
    """AnabelianBounds for every k from 1 to k_max in one recursion pass."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    with working_precision(p.config.precision):
        head, settled = _recursion(p, k_max)
        two_x = from_real(2 * _scale_part(p, p.d))
        return [AnabelianBounds(_recursive_at(head, settled, k), big_E(2 * k, two_x))
                for k in range(1, k_max + 1)]


def _recursion(p: BoundParams, k_max: int):
    """The recursive bound step by step, until k_max or until it settles.

    Returns (head, settled): head[k-1] is B(k, d) for each step taken, and
    settled is None when all k_max steps ran, else the running generator
    count d_t at the start of step len(head) + 1.

    The recursion settles once ln(d_t) is too large for `_real` under
    CHEAP_MAG, the test `mul_t` applies to the logs of its operands. From
    there each of the step's three products returns its larger operand
    with the inexact flag set: d_t exceeds the scale factor and the running
    product (ln d fits for any integer d, so d_t already carries the first
    layer), and the layer exceeds both. So the product and d_t both become
    the layer E_2(d_t), every later step is one more E_2, and values only
    grow, so the regime never ends (see `_recursive_at`).
    """
    scale = from_real(_scale_part(p))
    d_t = from_real(p.d)
    recursive = ONE
    head = []
    while len(head) < k_max:
        if _real(ln_t(d_t), CHEAP_MAG) is None:
            return head, d_t
        layer = big_E(2, mul_t(scale, d_t))
        recursive = mul_t(recursive, layer)
        d_t = mul_t(d_t, layer)
        head.append(recursive)
    return head, None


def _recursive_at(head: list, settled, k: int) -> TowerNumber:
    """B(k, d) from what `_recursion` returned: a step it took, or, past
    those, the settled d_t with one E_2 per remaining step, flagged inexact."""
    if k <= len(head):
        return head[k - 1]
    return TowerNumber(settled.height + 2 * (k - len(head)), settled.index, True)


def anabelian_intermediate_bound(p: BoundParams) -> TowerNumber:
    """Middle link of the recursion's chain: E_2k(x + lnln(2x^2))."""
    with working_precision(p.config.precision):
        x = _scale_part(p, p.d)
        return big_E(2 * p.k, from_real(x + mp.ln(mp.ln(2 * x * x))))


@dataclass(frozen=True)
class BoundReport:
    """Every stage of the pipeline for one (word, d) input."""

    params: BoundParams
    lambda_used: int
    alt_bound: TowerNumber
    lie_closed: TowerNumber
    lie_grids: dict
    sporadic: TowerNumber
    semisimple_product: TowerNumber
    semisimple_normalized: TowerNumber
    anabelian_recursive: TowerNumber
    anabelian_closed: TowerNumber
    main_bound: TowerNumber
    notes: tuple

    def to_dict(self) -> dict:
        cfg = self.params.config
        return {
            "d": self.params.d,
            "length": self.params.length,
            "lambda_used": self.lambda_used,
            "config": cfg.to_dict(),
            "stages": {
                "alternating": render_tower(self.alt_bound),
                "lie_closed": render_tower(self.lie_closed),
                "lie_grids": {f: render_tower(v) for f, v in self.lie_grids.items()},
                "sporadic": render_tower(self.sporadic),
                "semisimple_product": render_tower(self.semisimple_product),
                "semisimple_normalized": render_tower(self.semisimple_normalized),
                "anabelian_recursive": render_tower(self.anabelian_recursive),
                "anabelian_closed": render_tower(self.anabelian_closed),
            },
            "main_bound": render_tower(self.main_bound),
            "main_bound_height": self.main_bound.height,
            "notes": list(self.notes),
        }


def main_theorem_bound(w: Word, d: int, lambda_override: int | None = None,
                       config: Config | None = None) -> BoundReport:
    """Size bound for finite anabelian quotients of the d-generated group
    with law w: the recursion evaluated at k = nonsolvable length, which is
    at most the law length (an input fact, not derived here)."""
    if w.is_empty():
        raise ValueError("the trivial word bounds nothing")
    if config is None:
        config = Config()
    length = word_length(w)
    notes = ["nonsolvable length taken as at most the law length (input fact)"]
    if length < 2:
        notes.append("law length raised to the minimum 2 the formulas require")
        length = 2
    k = length
    if lambda_override is not None:
        if lambda_override < 1:
            raise ValueError("lambda override must be positive")
        k = min(length, lambda_override)
        notes.append("nonsolvable length overridden to %d" % k)
    p = BoundParams(d, length, k, config)
    notes.append("constants: c=%g c1=%g c2=%g c3=%g c4=%g sporadic_max=%s"
                 % (config.c, config.c1, config.c2, config.c3, config.c4,
                    config.sporadic_max))
    with working_precision(config.precision):
        semi = semisimple_bound(p)
        ana = anabelian_bound(p)
        if cmp_t(ana.recursive, ana.closed) > 0:
            raise RuntimeError("recursive bound exceeded its closed form")
    return BoundReport(
        params=p,
        lambda_used=k,
        alt_bound=semi.alternating,
        lie_closed=semi.lie.closed,
        lie_grids=dict(semi.lie.grids),
        sporadic=semi.sporadic,
        semisimple_product=semi.product,
        semisimple_normalized=semi.normalized,
        anabelian_recursive=ana.recursive,
        anabelian_closed=ana.closed,
        main_bound=ana.closed,
        notes=tuple(notes),
    )
