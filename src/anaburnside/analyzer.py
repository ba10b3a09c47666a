"""Triviality decision procedure for anabelian quotients defined by a word law.

The exponent of the word's abelianization drives the case split: odd
exponents force solvability through Feit-Thompson, two-prime exponents
through Burnside, and the remaining exponents are probed for a concrete
simple witness group satisfying the word. Disjoint commutators are
handled through the subdirect-product embedding of the two factors.
`decide` reaches the verdict without the size bound; `analyze` then
attaches the bound, once per distinct word length.
"""

from dataclasses import dataclass, replace

from .bounds import BoundReport, main_theorem_bound
from .catalog import factorize, witness_pool
from .config import Config
from .engine import is_law, make_group
from .errors import CapExceeded
from .words import (Word, neumann_exponent, split_disjoint_commutator, to_string,
                    word_length)

VERDICT_RANK = "TrivialByRank"
VERDICT_FT = "TrivialByFeitThompson"
VERDICT_BURNSIDE = "TrivialByBurnside"
VERDICT_WITNESS = "NontrivialWitness"
VERDICT_TRIVIAL_FACTORS = "TrivialByFactors"
VERDICT_UNKNOWN = "Unknown"
_TRIVIAL = frozenset({VERDICT_RANK, VERDICT_FT, VERDICT_BURNSIDE})


@dataclass(frozen=True)
class WitnessRecord:
    """A simple group verified to satisfy the law."""

    descriptor: str
    name: str
    exponent: int
    assignments_checked: int

    def to_dict(self):
        return {"descriptor": self.descriptor, "name": self.name,
                "exponent": self.exponent,
                "assignments_checked": self.assignments_checked}


@dataclass(frozen=True)
class AnalysisReport:
    """A verdict on a word at rank d; `bound` is None until it is attached."""

    word: Word
    d: int
    case: str
    verdict: str
    exponent: int = None
    burnside: tuple = None
    witnesses: tuple = ()
    bound: BoundReport = None
    notes: tuple = ()
    sub_reports: tuple = ()
    conclusion: str = None

    def to_dict(self) -> dict:
        out = {
            "word": to_string(self.word),
            "d": self.d,
            "case": self.case,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }
        if self.exponent is not None:
            out["exponent"] = self.exponent
        if self.burnside is not None:
            a, p, b = self.burnside
            out["burnside"] = {"a": a, "p": p, "b": b}
        if self.witnesses:
            out["witnesses"] = [w.to_dict() for w in self.witnesses]
        if self.conclusion is not None:
            out["conclusion"] = self.conclusion
        if self.sub_reports:
            out["sub_reports"] = [r.to_dict() for r in self.sub_reports]
        if self.bound is not None:
            out["length"] = self.length
            out["bound"] = self.bound.to_dict()
        return out

    @property
    def length(self) -> int:
        """The law length the bound was evaluated at."""
        return self.bound.params.length


def _search_witnesses(w: Word, n: int, config: Config):
    """Pool groups satisfying w, each certified by an exhaustive check.

    Only groups whose exponent divides n are candidates. When every syllable
    exponent of w is a multiple of n, x^n implies w and the check runs on
    x^n, where a failure is a fault in the catalog's closed-form exponent;
    otherwise it runs on w. A candidate that the builder or the check
    refuses under a cap (`degree_cap`, `cayley_cap`, `exhaust_cap`) is
    excluded with a note quoting the refusal."""
    witnesses = []
    notes = []
    power = all(e % n == 0 for _, e in w.syllables)
    law = Word.make(((1, n),), rank=1) if power else Word.make(w.syllables)
    for group in witness_pool():
        if n % group.exponent:
            continue
        try:
            verdict = is_law(law, make_group(group.descriptor, config.degree_cap,
                                             config.cayley_cap),
                             exhaust_cap=config.exhaust_cap, cayley_cap=config.cayley_cap)
        except CapExceeded as exc:
            notes.append("%s %s but %s; excluded" % (
                group.name, "satisfies the law" if power else "has exponent dividing %d" % n,
                exc))
            continue
        if verdict.holds:
            witnesses.append(WitnessRecord(group.descriptor, group.name, group.exponent,
                                           verdict.checked))
        elif power:
            raise RuntimeError("exponent of %s divides %d but the law check failed"
                               % (group.name, n))
    if witnesses:
        notes.append("each witness satisfies the law %s on every %s, so it is a "
                     "quotient of the variety and certifies nontriviality for d >= 2"
                     % (to_string(law), "element" if power else "assignment"))
    return tuple(witnesses), notes


def _case_split(w: Word, d: int, config: Config) -> AnalysisReport:
    """Decide what the word's exponent implies for anabelian quotients.

    Rank 1: one-generated groups are cyclic, so the quotient is trivial. Odd
    exponent: finite quotients have odd order, hence are solvable by
    Feit-Thompson, so the anabelian quotient variety is trivial. Exponent
    2^a * p^b: solvable by Burnside's two-prime theorem, same conclusion.
    Otherwise a simple witness group satisfying w certifies a nontrivial
    quotient, or the verdict stays unknown.
    """
    if w.is_empty():
        raise ValueError("the trivial word defines the whole free group")
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return AnalysisReport(w, d, "rank", VERDICT_RANK,
                              notes=("rank 1: one-generated groups are cyclic, so every "
                                     "anabelian quotient is trivial regardless of the word",))
    n = neumann_exponent(w)
    if n == 0:
        return AnalysisReport(w, d, "derived", VERDICT_UNKNOWN,
                              notes=("word lies in the derived subgroup; abelian quotients "
                                     "vanish but finite quotients can be unboundedly large, "
                                     "so no finite criterion applies",))
    factors = factorize(n)
    if n % 2:
        return AnalysisReport(w, d, "periodic", VERDICT_FT, exponent=n,
                              notes=("exponent %d is odd: groups of odd exponent have odd "
                                     "order, hence are solvable by Feit-Thompson" % n,))
    odd = [(p, e) for p, e in factors if p != 2]
    if len(odd) <= 1:
        a = dict(factors).get(2, 0)
        p, b = odd[0] if odd else (None, 0)
        note = ("exponent %d = 2^%d%s admits only {2%s}-groups, solvable by Burnside's "
                "two-prime theorem" % (n, a, "" if p is None else " * %d^%d" % (p, b),
                                       "" if p is None else ", %d" % p))
        return AnalysisReport(w, d, "periodic", VERDICT_BURNSIDE, exponent=n,
                              burnside=(a, p, b), notes=(note,))
    witnesses, notes = _search_witnesses(w, n, config)
    if witnesses:
        return AnalysisReport(w, d, "periodic", VERDICT_WITNESS, exponent=n,
                              witnesses=witnesses, notes=tuple(notes))
    notes.append("no witness found among the desk-scale simple groups; "
                 "nontriviality is undecided, not refuted")
    return AnalysisReport(w, d, "periodic", VERDICT_UNKNOWN, exponent=n, notes=tuple(notes))


def decide(w: Word, d: int, config: Config | None = None) -> AnalysisReport:
    """The verdict on w at rank d, with no bound on any node.

    A word w = [w1, w2] whose factors share no variable is split once: the
    quotient variety of w embeds into the product of the two factor
    varieties as a subdirect product, so triviality of the factors
    propagates, and a bare-variable factor is the trivial variety, leaving
    an isomorphism with the other factor. Each factor, like every other
    word, goes through the exponent case split and is not split again.
    """
    if config is None:
        config = Config()
    split = None if w.is_empty() else split_disjoint_commutator(w)
    if split is None:
        return _case_split(w, d, config)
    sub1, sub2 = (_case_split(f, d, config) for f in split)
    bare = [len(f.syllables) == 1 and abs(f.syllables[0][1]) == 1 for f in split]
    verdict = VERDICT_UNKNOWN
    witnesses = ()
    if any(bare):
        which, other = ("second", sub1) if bare[1] else ("first", sub2)
        conclusion = ("the %s factor is a bare variable, whose variety is "
                      "trivial; the quotient variety is isomorphic to the "
                      "other factor's" % which)
        verdict, witnesses = other.verdict, other.witnesses
    elif sub1.verdict in _TRIVIAL and sub2.verdict in _TRIVIAL:
        conclusion = ("both factor varieties are trivial, so the subdirect "
                      "embedding forces the quotient variety to be trivial")
        verdict = VERDICT_TRIVIAL_FACTORS
    elif sub1.verdict in _TRIVIAL or sub2.verdict in _TRIVIAL:
        which, other = (("first", sub2) if sub1.verdict in _TRIVIAL
                        else ("second", sub1))
        conclusion = ("the %s factor variety is trivial, so the group embeds "
                      "into the other factor's variety" % which)
        # every group satisfying the other factor's law satisfies w, so
        # that factor's witnesses carry over
        verdict, witnesses = other.verdict, other.witnesses
    elif sub1.witnesses or sub2.witnesses:
        conclusion = ("every group satisfying either factor's law satisfies "
                      "the commutator, so each factor's witnesses carry over")
        verdict = VERDICT_WITNESS
        first = {r.descriptor for r in sub1.witnesses}
        witnesses = sub1.witnesses + tuple(r for r in sub2.witnesses
                                           if r.descriptor not in first)
    else:
        conclusion = ("the group embeds as a subdirect product into the "
                      "product of the two factor varieties")
    return AnalysisReport(w, d, "disjoint_commutator", verdict, witnesses=witnesses,
                          notes=("factors have disjoint supports, giving the "
                                 "subdirect-product embedding",),
                          sub_reports=(sub1, sub2), conclusion=conclusion)


def _with_bounds(report: AnalysisReport, config: Config | None) -> AnalysisReport:
    """The report with the size bound of its own word on it and on each
    sub-report. A bound depends on the word only through its length, so
    nodes of equal length and rank share one `main_theorem_bound`
    evaluation, kept for this report alone."""
    found = {}

    def attach(r):
        key = (word_length(r.word), r.d)
        if key not in found:
            found[key] = main_theorem_bound(r.word, r.d, config=config)
        return replace(r, bound=found[key],
                       sub_reports=tuple(attach(s) for s in r.sub_reports))
    return attach(report)


def classify(w: Word, d: int, config: Config | None = None) -> AnalysisReport:
    """The exponent case split on w as a whole, never split, with its bound."""
    return _with_bounds(_case_split(w, d, Config() if config is None else config), config)


def analyze(w: Word, d: int, config: Config | None = None) -> AnalysisReport:
    """Entry point: `decide`, then the bound on every node."""
    return _with_bounds(decide(w, d, config), config)
