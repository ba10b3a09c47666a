"""Level-index arithmetic for iterated-exponential magnitudes.

A TowerNumber stores a nonnegative real as E_h(f), where E_0(x) = x and
E_{n+1}(x) = exp(E_n(x)).  The canonical pair keeps f in [0,1), which makes
comparison lexicographic and lets heights in the millions cost nothing.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import total_ordering

from mpmath import mp

from .config import Config
from .errors import TowerOverflow

# Largest binary magnitude a real may reach before the next exp would need a
# multi-megabyte exponent integer.  exp(u) stores an exponent of roughly
# u*log2(e), so u may not exceed 2**MAX_MAG bits' worth of value.
MAX_MAG = 1 << 23

# Magnitude past which exp becomes slow at high working precision; internal
# arithmetic refuses to materialize reals beyond this and falls back to
# logarithm descent or the dominant-operand shortcut.
CHEAP_MAG = 1 << 12

_PRECISION = ContextVar("tower_precision", default=Config.precision)


def get_precision() -> int:
    """Working decimal digits of tower arithmetic in the current scope."""
    return _PRECISION.get()


@contextmanager
def working_precision(dps: int):
    """Run the block, its tower arithmetic and its mpmath work at `dps` digits.

    The setting is a context variable, so it ends with the block and never
    leaks into other callers; outside every block it is `Config.precision`.
    """
    token = _PRECISION.set(dps)
    try:
        with mp.workdps(dps):
            yield
    finally:
        _PRECISION.reset(token)


@total_ordering
@dataclass(frozen=True)
class TowerNumber:
    """Canonical level-index value E_height(index) with 0 <= index < 1.

    The inexact flag is sticky bookkeeping: it marks values whose index may
    have absorbed a sub-resolution adjustment, and it never affects ordering.
    """

    height: int
    index: object
    inexact: bool = False

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("tower height must be nonnegative")
        with mp.workdps(get_precision()):
            f = mp.mpf(self.index)
        if not (0 <= f < 1):
            raise ValueError(
                "non-canonical index %s at height %d; build values with "
                "tower() or from_real()" % (f, self.height)
            )
        object.__setattr__(self, "index", f)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TowerNumber):
            return NotImplemented
        return cmp_t(self, other) == 0

    def __lt__(self, other: "TowerNumber") -> bool:
        return cmp_t(self, other) < 0

    def __hash__(self) -> int:
        # equality tolerates sub-resolution index differences, so only the
        # height can participate in the hash
        return hash(self.height)

    def __str__(self) -> str:
        return render_tower(self)

    def __repr__(self) -> str:
        flag = ", inexact" if self.inexact else ""
        with mp.workdps(get_precision()):
            return "TowerNumber(%d, %s%s)" % (self.height, mp.nstr(self.index, 12), flag)


def tower(height: int, index) -> TowerNumber:
    """Build the canonical TowerNumber for E_height(index), any real index.

    Canonicalization is structural: E_h(x) = E_{h+1}(ln x) for x >= 1 and
    E_h(x) = E_{h-1}(exp(x)) for x < 0, so only the index is ever touched.
    After a ln or exp step, results within 10^(10-dps) of the fixed points 0
    and 1 snap onto them, so boundary values such as e or e^e canonicalize
    deterministically instead of straddling two representations.
    """
    if height < 0:
        raise ValueError("tower height must be nonnegative")
    dps = get_precision()
    with mp.workdps(dps):
        x = mp.mpf(index)
        h = int(height)
        snap = mp.mpf(10) ** (10 - dps)
        stepped = False
        while True:
            if stepped:
                if abs(x) <= snap:
                    x = mp.mpf(0)
                elif abs(x - 1) <= snap:
                    x = mp.mpf(1)
            if 0 <= x < 1:
                break
            if x >= 1:
                x = mp.ln(x)
                h += 1
            else:
                if h == 0:
                    raise ValueError("negative values are not representable")
                x = mp.exp(x)
                h -= 1
            stepped = True
        return TowerNumber(h, x)


def from_real(x) -> TowerNumber:
    """Canonicalize a nonnegative real: iterate ln until the result drops below 1."""
    with mp.workdps(get_precision()):
        v = mp.mpf(x)
    if v < 0:
        raise ValueError("negative values are not representable")
    return tower(0, v)


def to_real(x: TowerNumber):
    """Materialize the represented real, or raise TowerOverflow when it cannot fit."""
    v = _real(x, MAX_MAG)
    if v is None:
        raise TowerOverflow("E_%d(%s) does not fit as a real" % (x.height, mp.nstr(x.index, 6)))
    return v


def _real(x: TowerNumber, cap: int):
    """The represented real, or None when a step of its exp chain starts
    above `cap` magnitude.

    A value past (cap + 2)*ln 2 that still has an exp ahead of it is
    certain to fail the next step, so that expensive exp is never taken.
    """
    with mp.workdps(get_precision()):
        v = mp.mpf(x.index)
        skip = (cap + 2) * mp.ln(2)
        for step in range(x.height, 0, -1):
            if mp.mag(v) > cap or (step > 1 and v > skip):
                return None
            v = mp.exp(v)
        return v


def exp_t(x: TowerNumber) -> TowerNumber:
    """exp of a tower value: pure height bookkeeping on canonical input."""
    return TowerNumber(x.height + 1, x.index, x.inexact)


def ln_t(x: TowerNumber) -> TowerNumber:
    """ln of a tower value; defined for values >= 1, exact inverse of exp_t."""
    if x.height == 0:
        if x.index == 0:
            raise ValueError("logarithm of zero")
        raise ValueError("logarithm below 1 is negative; negative values are not representable")
    return TowerNumber(x.height - 1, x.index, x.inexact)


def big_E(k: int, x: TowerNumber) -> TowerNumber:
    """Apply exp_t k times: E_k of the represented value, height bookkeeping only."""
    if k < 0:
        raise ValueError("iterated-exponential count must be nonnegative")
    return TowerNumber(x.height + int(k), x.index, x.inexact)


def cmp_t(x: TowerNumber, y: TowerNumber) -> int:
    """Total order on represented values: lexicographic on (height, index).

    Indexes within 10^(10-dps) of each other compare equal; values computed
    along different routes agree only to working precision, and pretending
    to resolve differences below it would make comparisons route-dependent.
    """
    if x.height != y.height:
        return -1 if x.height < y.height else 1
    dps = get_precision()
    with mp.workdps(dps):
        d = mp.mpf(x.index) - mp.mpf(y.index)
        if abs(d) <= mp.mpf(10) ** (10 - dps):
            return 0
    return -1 if d < 0 else 1


def close_t(x: TowerNumber, y: TowerNumber, tol=None) -> bool:
    """Equality up to an index tolerance, for values computed along different routes."""
    if x.height != y.height:
        return False
    dps = get_precision()
    with mp.workdps(dps):
        t = mp.mpf(10) ** (15 - dps) if tol is None else mp.mpf(tol)
        return abs(mp.mpf(x.index) - mp.mpf(y.index)) <= t


ZERO = TowerNumber(0, 0)
ONE = TowerNumber(1, 0)


def is_zero(x: TowerNumber) -> bool:
    """Zero up to resolution, as `cmp_t` compares: a product with a factor
    that compares equal to zero is zero, however large the other factor."""
    return x.height == 0 and cmp_t(x, ZERO) == 0


def is_one(x: TowerNumber) -> bool:
    return x.height == 1 and x.index == 0


def _add_t(x: TowerNumber, y: TowerNumber) -> TowerNumber:
    """Internal sum, exact when both operands materialize cheaply.

    Beyond that the smaller operand shifts the larger one's canonical
    index by less than working resolution in every regime the bound
    pipeline produces, so the result is the larger operand with the
    inexact flag set.
    """
    if is_zero(x):
        return y
    if is_zero(y):
        return x
    xv = _real(x, CHEAP_MAG)
    yv = None if xv is None else _real(y, CHEAP_MAG)
    if yv is not None:
        with mp.workdps(get_precision()):
            out = tower(0, xv + yv)
        if x.inexact or y.inexact:
            out = replace(out, inexact=True)
        return out
    big = x if cmp_t(x, y) >= 0 else y
    return replace(big, inexact=True)


def mul_t(x: TowerNumber, y: TowerNumber) -> TowerNumber:
    """Canonical product.

    Factors of height >= 1 (value at least 1) multiply by descending
    through logarithms, so no astronomically large real is ever
    materialized.  A factor below 1 folds into the other operand's
    logarithm when that logarithm is cheap to take; once an operand is too
    large even for that, the result is the dominant operand with the
    sub-resolution increment recorded in the sticky inexact flag.
    """
    if is_zero(x) or is_zero(y):
        return ZERO
    if is_one(x):
        return replace(y, inexact=y.inexact or x.inexact)
    if is_one(y):
        return replace(x, inexact=x.inexact or y.inexact)
    if x.height >= 1 and y.height >= 1:
        return exp_t(_add_t(ln_t(x), ln_t(y)))
    if x.height == 0 and y.height == 0:
        # Both values sit in (0,1); so does the product.
        with mp.workdps(get_precision()):
            out = tower(0, to_real(x) * to_real(y))
        if x.inexact or y.inexact:
            out = replace(out, inexact=True)
        return out
    small, big = (x, y) if x.height == 0 else (y, x)
    lg = _real(ln_t(big), CHEAP_MAG)
    if lg is not None:
        with mp.workdps(get_precision()):
            s = lg + mp.ln(to_real(small))
            out = exp_t(tower(0, s)) if s >= 0 else tower(0, mp.exp(s))
        if x.inexact or y.inexact:
            out = replace(out, inexact=True)
        return out
    # The small factor shifts the huge operand's index below resolution.
    return replace(big, inexact=True)


def pow_t(x: TowerNumber, n) -> TowerNumber:
    """x raised to a nonnegative real power n, via x^n = exp(n * ln x)."""
    with mp.workdps(get_precision()):
        e = mp.mpf(n)
        if e < 0:
            raise ValueError("negative exponents are not supported")
        if e == 0:
            return ONE
        if e == 1:
            return x
        if is_zero(x) or is_one(x):
            return x
        v = _real(x, CHEAP_MAG)
        if v is not None and mp.mag(v) * e <= MAX_MAG:
            out = tower(0, v ** e)
            return replace(out, inexact=x.inexact) if x.inexact else out
    if x.height == 0:
        # value in (0,1); ln is negative, not representable
        raise ValueError("powers of values below 1 are not representable")
    return exp_t(mul_t(from_real(e), ln_t(x)))


_LOW_RENDER_CAP = None


def _low_render_cap() -> TowerNumber:
    global _LOW_RENDER_CAP
    if _LOW_RENDER_CAP is None:
        _LOW_RENDER_CAP = from_real(mp.mpf(10) ** 30)
    return _LOW_RENDER_CAP


def render_tower(x: TowerNumber) -> str:
    """Render as "E_h(f)", with a decimal tail when the value is below 10^30."""
    with mp.workdps(get_precision()):
        s = "E_%d(%s)" % (x.height, mp.nstr(mp.mpf(x.index), 6))
        if cmp_t(x, _low_render_cap()) < 0:
            s += " = %s" % mp.nstr(to_real(x), 8)
    if x.inexact:
        s += " [inexact]"
    return s


_TOWER_RE = re.compile(r"^\s*E_?(\d+)\s*\(\s*([^()\s]+)\s*\)")


def parse_tower(text: str) -> TowerNumber:
    """Parse "E_h(f)" (any real f, canonicalized) or a bare nonnegative decimal."""
    m = _TOWER_RE.match(text)
    if m:
        return tower(int(m.group(1)), m.group(2))
    try:
        return from_real(text.strip())
    except ValueError:
        raise ValueError("cannot parse tower value from %r" % text) from None
