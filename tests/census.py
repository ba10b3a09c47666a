"""Verdict census: how many words of two fixed corpora get each verdict.

Both corpora are decided at rank d = 2 by `analyzer.decide`, which leaves
out the size bound, so a census takes seconds:

- powers: x^n for n = 1..2000
- short words: every cyclically reduced two-variable word of length at most
  8, one per class under rotation and inversion (`laws._cyclic_words`)

`tests/test_census.py` pins the counts and the short `Unknown` words. A
change to a verdict rule runs the census before and after, from the root of
the repository:

    PYTHONPATH=src python tests/census.py

It prints one line per (corpus, verdict) with its count, then the words of
each corpus that stay `Unknown`.
"""

from collections import Counter

from anaburnside.analyzer import VERDICT_UNKNOWN, decide
from anaburnside.engine.laws import _cyclic_words, _word_from_letters
from anaburnside.words import parse_word, to_string

D = 2
MAX_POWER = 2000
MAX_LENGTH = 8


def corpora() -> dict:
    """The words of each corpus, by corpus name."""
    return {
        "powers": [parse_word("x^%d" % n) for n in range(1, MAX_POWER + 1)],
        "short": [_word_from_letters(letters, 2) for length in range(1, MAX_LENGTH + 1)
                  for letters in _cyclic_words(length, 2)],
    }


def census():
    """The count per (corpus, verdict), and each corpus's `Unknown` words."""
    counts = Counter()
    unknown = {}
    for name, words in corpora().items():
        unknown[name] = []
        for w in words:
            verdict = decide(w, D).verdict
            counts[name, verdict] += 1
            if verdict == VERDICT_UNKNOWN:
                unknown[name].append(to_string(w))
    return counts, unknown


def main():
    counts, unknown = census()
    for (name, verdict), count in sorted(counts.items()):
        print("%s %s %d" % (name, verdict, count))
    for name, words in unknown.items():
        print("%s %s: %s" % (name, VERDICT_UNKNOWN, ", ".join(words)))


if __name__ == "__main__":
    main()
