"""Free-group words: parsing, free reduction, exponent analysis, evaluation."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import WordSyntaxError

NAMED_GENERATORS = ("x", "y", "z", "w")


def _reduce(syllables) -> tuple:
    """Freely reduce a syllable sequence: merge runs, drop zero exponents."""
    out = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


def _invert(syllables) -> tuple:
    return tuple((g, -e) for g, e in reversed(syllables))


@dataclass(frozen=True)
class Word:
    """A freely reduced word in F_rank; syllables are (generator index, exponent)."""

    rank: int
    syllables: tuple

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        reduced = _reduce(self.syllables)
        if reduced != tuple(self.syllables):
            raise ValueError("syllables are not freely reduced")
        for gen, exp in reduced:
            if not (1 <= gen <= self.rank):
                raise ValueError("generator index %d outside rank %d" % (gen, self.rank))
            if exp == 0:
                raise ValueError("zero exponent syllable")
        object.__setattr__(self, "syllables", reduced)

    @staticmethod
    def make(syllables, rank: int | None = None) -> "Word":
        """Build a Word from any syllable sequence, freely reducing it."""
        reduced = _reduce(syllables)
        need = max((g for g, _ in reduced), default=1)
        return Word(rank if rank is not None else need, reduced)

    def is_empty(self) -> bool:
        return not self.syllables

    def inverse(self) -> "Word":
        return Word(self.rank, _invert(self.syllables))

    def __str__(self) -> str:
        return to_string(self)


def to_string(w: Word) -> str:
    """Print with named letters for rank <= 4, indexed generators otherwise."""
    parts = []
    for gen, exp in w.syllables:
        name = NAMED_GENERATORS[gen - 1] if w.rank <= 4 else "x%d" % gen
        parts.append(name if exp == 1 else "%s^%d" % (name, exp))
    return " ".join(parts)


_TOKEN_RE = re.compile(r"\s+|\*|(?P<gen>x\d+|[xyzw])|(?P<num>-?\d+)|(?P<sym>[\^\[\],()])")


class _Parser:
    def __init__(self, text: str, rank_hint: int | None):
        self.text = text
        self.rank_hint = rank_hint
        self.pos = 0
        self.style = None          # "named" or "indexed"
        self.max_index = 0

    def error(self, message: str, pos: int | None = None):
        raise WordSyntaxError(
            "char %d: %s" % ((self.pos if pos is None else pos) + 1, message)
        )

    def peek(self) -> str:
        i = self.pos
        while i < len(self.text) and (self.text[i].isspace() or self.text[i] == "*"):
            i += 1
        return self.text[i] if i < len(self.text) else ""

    def next_token(self):
        while self.pos < len(self.text):
            m = _TOKEN_RE.match(self.text, self.pos)
            if m is None:
                self.error("unexpected character %r" % self.text[self.pos])
            start = self.pos
            self.pos = m.end()
            if m.lastgroup is None:
                continue
            return m.lastgroup, m.group(), start
        return None, "", self.pos

    def generator_index(self, token: str, pos: int) -> int:
        if len(token) > 1:
            style, index = "indexed", int(token[1:])
            if index < 1:
                self.error("generator index must be at least 1", pos)
        else:
            style, index = "named", NAMED_GENERATORS.index(token) + 1
        if self.style is None:
            self.style = style
        elif self.style != style:
            self.error("mixed named and indexed generators", pos)
        if self.rank_hint is not None and index > self.rank_hint:
            self.error("generator index %d exceeds rank %d" % (index, self.rank_hint), pos)
        self.max_index = max(self.max_index, index)
        return index

    def parse_exponent_if_present(self) -> int | None:
        if self.peek() != "^":
            return None
        self.next_token()
        kind, tok, pos = self.next_token()
        if kind != "num":
            self.error("expected integer exponent", pos)
        return int(tok)

    def parse_word(self, stop: str) -> list:
        syllables = []
        first = True
        while True:
            c = self.peek()
            if c == "" or c in stop:
                if first:
                    self.error("expected a word" if c else "unexpected end of input")
                return syllables
            syllables.extend(self.parse_term())
            first = False

    def parse_term(self) -> list:
        kind, tok, pos = self.next_token()
        if kind == "gen":
            index = self.generator_index(tok, pos)
            exp = self.parse_exponent_if_present()
            return [(index, 1 if exp is None else exp)]
        if tok == "(":
            inner = self.parse_word(")")
            self.expect(")")
            return self.repeat(inner, self.parse_exponent_if_present())
        if tok == "[":
            left = self.parse_word(",]")
            self.expect(",")
            right = self.parse_word("]")
            self.expect("]")
            commutator = list(_invert(left)) + list(_invert(right)) + left + right
            return self.repeat(commutator, self.parse_exponent_if_present())
        self.error("unexpected %r" % (tok if tok else "end of input"), pos)

    def expect(self, symbol: str) -> None:
        kind, tok, pos = self.next_token()
        if tok != symbol:
            self.error("expected %r" % symbol, pos)

    def repeat(self, syllables: list, exp: int | None) -> list:
        if exp is None or exp == 1:
            return syllables
        if exp == 0:
            return []
        block = syllables if exp > 0 else list(_invert(syllables))
        return block * abs(exp)


def parse_word(text: str, rank_hint: int | None = None) -> Word:
    """Parse the grammar: juxtaposition, ^powers, [u,v] commutators, (...) groups."""
    if rank_hint is not None and rank_hint < 1:
        raise ValueError("rank_hint must be positive")
    parser = _Parser(text, rank_hint)
    syllables = parser.parse_word(stop="")
    kind, tok, pos = parser.next_token()
    if kind is not None:
        parser.error("unexpected %r" % tok, pos)
    rank = rank_hint if rank_hint is not None else max(parser.max_index, 1)
    return Word(rank, _reduce(syllables))


def word_length(w: Word) -> int:
    """Reduced length: sum of absolute exponents."""
    return sum(abs(e) for _, e in w.syllables)


def exponent_profile(w: Word) -> tuple:
    """Signed exponent sum per generator 1..rank."""
    totals = [0] * w.rank
    for gen, exp in w.syllables:
        totals[gen - 1] += exp
    return tuple(totals)


def neumann_exponent(w: Word) -> int:
    """gcd of the absolute signed exponent sums; 0 when the word is a product of commutators."""
    if w.is_empty():
        raise ValueError("the empty word has no exponent")
    return math.gcd(*(abs(t) for t in exponent_profile(w)))


def _renumber(syllables) -> Word:
    order = sorted({g for g, _ in syllables})
    relabel = {g: i + 1 for i, g in enumerate(order)}
    return Word(len(order), tuple((relabel[g], e) for g, e in syllables))


def split_disjoint_commutator(w: Word):
    """Detect w = a^-1 b^-1 a b with disjoint supports for a and b, syntactically.

    With disjoint supports nothing cancels between the four blocks, so the
    reduced syllables split at their midpoint into a^-1 b^-1 and a b. One
    scan of the second half finds each cut i whose first i syllables share
    no generator with the rest; the shortest cut at which rotating the
    second half by i gives the inverted first half is the split. Returns
    (a, b) renumbered onto their own ranks, else None.
    """
    s = w.syllables
    if len(s) % 2:
        return None
    half = len(s) // 2
    second, first_inverted = s[half:], _invert(s[:half])
    last = {g: t for t, (g, _) in enumerate(second)}
    reach = 0
    for i in range(1, half):
        reach = max(reach, last[second[i - 1][0]])
        if reach < i and second[i:] + second[:i] == first_inverted:
            return _renumber(second[:i]), _renumber(second[i:])
    return None


def evaluate(w: Word, assignment, group):
    """Evaluate the word on a tuple of group elements under the group's operations."""
    if len(assignment) < w.rank:
        raise ValueError(
            "word of rank %d needs %d elements, got %d" % (w.rank, w.rank, len(assignment))
        )
    contains = getattr(group, "contains", None)
    if contains is not None:
        for g in assignment:
            if not contains(g):
                raise ValueError("assignment element is not in the group")
    result = group.identity()
    for gen, exp in w.syllables:
        base = assignment[gen - 1]
        if exp < 0:
            base = group.inv(base)
        result = times_power(group.mul, result, base, abs(exp))
    return result


def times_power(mul, result, x, e):
    """result * x**e for e >= 0 by square-and-multiply under the product
    `mul`, for single elements or arrays of them: the powers of x commute,
    so result takes x^(2^k) for each set bit k of e."""
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result
