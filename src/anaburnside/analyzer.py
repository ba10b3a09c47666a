"""Triviality decision procedure for anabelian quotients defined by a word law.

The exponent of the word's abelianization drives the case split: odd
exponents force solvability through Feit-Thompson, two-prime exponents
through Burnside, and the remaining exponents are probed for a concrete
simple witness group satisfying the word. Disjoint commutators are
handled through the subdirect-product embedding of the two factors.
"""

from dataclasses import dataclass

from .bounds import BoundReport, main_theorem_bound
from .catalog import factorize, witness_pool
from .config import Config
from .engine import is_law, make_group
from .errors import CapExceeded
from .words import Word, neumann_exponent, parse_word, split_disjoint_commutator, to_string

VERDICT_RANK = "TrivialByRank"
VERDICT_FT = "TrivialByFeitThompson"
VERDICT_BURNSIDE = "TrivialByBurnside"
VERDICT_WITNESS = "NontrivialWitness"
VERDICT_TRIVIAL_FACTORS = "TrivialByFactors"
VERDICT_UNKNOWN = "Unknown"


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
    word: Word
    d: int
    length: int
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
            "length": self.length,
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
            out["bound"] = self.bound.to_dict()
        return out


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


def classify(w: Word, d: int, config: Config | None = None) -> AnalysisReport:
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
    if config is None:
        config = Config()
    if d < 1:
        raise ValueError("d must be positive")
    bound = main_theorem_bound(w, d, config=config)
    if d == 1:
        return AnalysisReport(w, d, bound.params.length, "rank", VERDICT_RANK, bound=bound,
                              notes=("rank 1: one-generated groups are cyclic, so every "
                                     "anabelian quotient is trivial regardless of the word",))
    notes = []
    n = neumann_exponent(w)
    if n == 0:
        notes.append("word lies in the derived subgroup; abelian quotients "
                     "vanish but finite quotients can be unboundedly large, "
                     "so no finite criterion applies")
        return AnalysisReport(w, d, bound.params.length, "derived",
                              VERDICT_UNKNOWN, bound=bound, notes=tuple(notes))
    factors = factorize(n)
    if n % 2:
        notes.append("exponent %d is odd: groups of odd exponent have odd "
                     "order, hence are solvable by Feit-Thompson" % n)
        return AnalysisReport(w, d, bound.params.length, "periodic", VERDICT_FT,
                              exponent=n, bound=bound, notes=tuple(notes))
    odd = [(p, e) for p, e in factors if p != 2]
    if len(odd) <= 1:
        a = dict(factors).get(2, 0)
        p, b = odd[0] if odd else (None, 0)
        notes.append("exponent %d = 2^%d%s admits only {2%s}-groups, solvable "
                     "by Burnside's two-prime theorem"
                     % (n, a, "" if p is None else " * %d^%d" % (p, b),
                        "" if p is None else ", %d" % p))
        return AnalysisReport(w, d, bound.params.length, "periodic",
                              VERDICT_BURNSIDE, exponent=n, burnside=(a, p, b),
                              bound=bound, notes=tuple(notes))
    witnesses, wnotes = _search_witnesses(w, n, config)
    notes.extend(wnotes)
    if witnesses:
        return AnalysisReport(w, d, bound.params.length, "periodic",
                              VERDICT_WITNESS, exponent=n, witnesses=witnesses,
                              bound=bound, notes=tuple(notes))
    notes.append("no witness found among the desk-scale simple groups; "
                 "nontriviality is undecided, not refuted")
    return AnalysisReport(w, d, bound.params.length, "periodic",
                          VERDICT_UNKNOWN, exponent=n, bound=bound,
                          notes=tuple(notes))


def _is_single_variable_law(w: Word) -> bool:
    return len(w.syllables) == 1 and abs(w.syllables[0][1]) == 1


def analyze_disjoint_commutator(w: Word, d: int,
                                config: Config | None = None) -> AnalysisReport:
    """Classify both halves of w = [w1, w2] with disjoint supports.

    The quotient variety of w embeds into the product of the two factor
    varieties as a subdirect product, so triviality of the factors
    propagates; a bare-variable factor is the trivial variety, leaving an
    isomorphism with the other factor.
    """
    if config is None:
        config = Config()
    split = split_disjoint_commutator(w)
    if split is None:
        raise ValueError("word is not a disjoint commutator")
    w1, w2 = split
    sub1 = classify(w1, d, config)
    sub2 = classify(w2, d, config)
    bound = main_theorem_bound(w, d, config=config)
    trivial = {VERDICT_RANK, VERDICT_FT, VERDICT_BURNSIDE}
    verdict = VERDICT_UNKNOWN
    witnesses = ()
    if _is_single_variable_law(w2) or _is_single_variable_law(w1):
        other = sub1 if _is_single_variable_law(w2) else sub2
        bare = "second" if _is_single_variable_law(w2) else "first"
        conclusion = ("the %s factor is a bare variable, whose variety is "
                      "trivial; the quotient variety is isomorphic to the "
                      "other factor's" % bare)
        verdict = other.verdict
        witnesses = other.witnesses
    elif sub1.verdict in trivial and sub2.verdict in trivial:
        conclusion = ("both factor varieties are trivial, so the subdirect "
                      "embedding forces the quotient variety to be trivial")
        verdict = VERDICT_TRIVIAL_FACTORS
    elif sub1.verdict in trivial or sub2.verdict in trivial:
        which, other = (("first", sub2) if sub1.verdict in trivial
                        else ("second", sub1))
        conclusion = ("the %s factor variety is trivial, so the group embeds "
                      "into the other factor's variety" % which)
        # every group satisfying the other factor's law satisfies w, so
        # that factor's witnesses carry over
        verdict = other.verdict
        witnesses = other.witnesses
    elif sub1.witnesses or sub2.witnesses:
        conclusion = ("every group satisfying either factor's law satisfies "
                      "the commutator, so each factor's witnesses carry over")
        verdict = VERDICT_WITNESS
        first = {w.descriptor for w in sub1.witnesses}
        witnesses = sub1.witnesses + tuple(w for w in sub2.witnesses
                                           if w.descriptor not in first)
    else:
        conclusion = ("the group embeds as a subdirect product into the "
                      "product of the two factor varieties")
    notes = ("factors have disjoint supports, giving the subdirect-product "
             "embedding",)
    return AnalysisReport(w, d, bound.params.length, "disjoint_commutator",
                          verdict, witnesses=witnesses, bound=bound,
                          notes=notes, sub_reports=(sub1, sub2),
                          conclusion=conclusion)


def analyze(w: Word, d: int, config: Config | None = None) -> AnalysisReport:
    """Entry point: route disjoint commutators to the embedding analysis,
    everything else to the exponent case split."""
    if not w.is_empty() and split_disjoint_commutator(w) is not None:
        return analyze_disjoint_commutator(w, d, config)
    return classify(w, d, config)
