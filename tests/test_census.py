"""The verdict census of `tests/census.py`, pinned.

A change to a verdict rule changes these counts in the same commit. A word
may move from `Unknown` to a decided verdict; a word that moves between a
trivial verdict and `NontrivialWitness` means one of the rules is wrong.
"""

from anaburnside.catalog import factorize

from census import census

SHORT_UNKNOWN = [
    "x^2 y x^-1 y x^-1 y^-2",
    "x^2 y x^-1 y^-2 x^-1 y",
    "x^2 y^2 x^-1 y^-1 x^-1 y^-1",
    "x^2 y^-1 x^-1 y^2 x^-1 y^-1",
    "x^2 y^-1 x^-1 y^-1 x^-1 y^2",
    "x^2 y^-2 x^-1 y x^-1 y",
    "x y x y x^-1 y^-1 x^-1 y^-1",
    "x y x y^-1 x^-1 y x^-1 y^-1",
    "x y x^-1 y x y^-1 x^-1 y^-1",
    "x y x^-1 y x^-1 y^-1 x y^-1",
    "x y x^-1 y^-1 x y x^-1 y^-1",
]


def test_verdict_census():
    counts, unknown = census()
    assert dict(counts) == {
        ("powers", "TrivialByFeitThompson"): 1000,
        ("powers", "TrivialByBurnside"): 441,
        ("powers", "NontrivialWitness"): 91,
        ("powers", "Unknown"): 468,
        ("short", "TrivialByFeitThompson"): 435,
        ("short", "TrivialByBurnside"): 246,
        ("short", "TrivialByFactors"): 1,
        ("short", "Unknown"): 11,
    }
    assert unknown["short"] == SHORT_UNKNOWN
    # every Unknown power is even with at least three distinct primes
    for word in unknown["powers"]:
        n = int(word.removeprefix("x^"))
        assert n % 2 == 0 and len(factorize(n)) >= 3, word
