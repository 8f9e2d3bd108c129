"""Porter stemmer, original 1980 rule set (steps 1a-5b), written as its
rule tables.

Every condition of the rules is read from one [C](VC)^m[V] form of the
word, which ``_cv`` spells as one "c" or "v" per letter.

``stem`` is a pure function of its string, so it is memoised process-wide
in a bounded least-recently-used table of ``_MEMO_SIZE`` words: a corpus's
vocabulary is stemmed once however many times it is prepared.
"""

from __future__ import annotations

import functools

__all__ = ["stem"]

_MEMO_SIZE = 1 << 16  # words; see stem


def _cv(word: str) -> str:
    """"c" or "v" per letter; a "y" is a consonant at the start of the word
    and after a vowel."""
    form = ""
    for ch in word:
        form += "v" if ch in "aeiou" or (ch == "y" and form[-1:] == "c") else "c"
    return form


def _measure(stem: str) -> int:
    """The m in [C](VC)^m[V]."""
    return _cv(stem).count("vc")


def _cvc(word: str) -> bool:
    """*o: ends consonant-vowel-consonant, final consonant not w, x, or y."""
    return _cv(word).endswith("cvc") and word[-1] not in "wxy"


def _first_rule(word: str, rules, min_m: int) -> str:
    """The first rule whose suffix ends ``word`` decides, and no later rule
    is tried: its suffix is replaced when the stem left has m > min_m."""
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            return stem + repl if _measure(stem) > min_m else word
    return word


_STEP1A = [("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")]

_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def stem(token: str) -> str:
    """Stem a lowercase alphabetic token; anything else passes through.
    Memoised (``stem.cache_info()``, ``stem.__wrapped__``), so the token
    must be hashable."""
    word = token
    if len(word) <= 2 or not word.isalpha() or not word.isascii():
        return word

    word = _first_rule(word, _STEP1A, -1)

    # step 1b
    fixup = False
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and "v" in _cv(word[:-2]):
        word = word[:-2]
        fixup = True
    elif word.endswith("ing") and "v" in _cv(word[:-3]):
        word = word[:-3]
        fixup = True
    if fixup:
        if word.endswith(("at", "bl", "iz")):
            word += "e"
        elif (word.endswith(word[-1] * 2) and _cv(word).endswith("c")
              and word[-1] not in "lsz"):
            word = word[:-1]
        elif _measure(word) == 1 and _cvc(word):
            word += "e"

    # step 1c
    if word.endswith("y") and "v" in _cv(word[:-1]):
        word = word[:-1] + "i"

    word = _first_rule(word, _STEP2, 0)
    word = _first_rule(word, _STEP3, 0)

    # step 4: "ion" goes only after s or t, and no later suffix ends in "n"
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if _measure(stem_part) > 1 and (suffix != "ion" or stem_part[-1] in "st"):
                word = stem_part
            break

    # step 5a
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _cvc(word[:-1])):
            word = word[:-1]

    # step 5b
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]

    return word
