"""Porter stemmer, original 1980 rule set (steps 1a-5b)."""

from __future__ import annotations

__all__ = ["stem"]

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count of vowel-consonant sequences (the m in [C](VC)^m[V])."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_cons(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _double_cons(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_cons(word, len(word) - 1))


def _cvc(word: str) -> bool:
    """Ends consonant-vowel-consonant, final consonant not w, x, or y."""
    if len(word) < 3:
        return False
    return (_is_cons(word, len(word) - 3)
            and not _is_cons(word, len(word) - 2)
            and _is_cons(word, len(word) - 1)
            and word[-1] not in "wxy")


def _replace(word: str, suffix: str, repl: str, min_m: int) -> str:
    """Replace ``word``'s suffix, which the caller has matched, if the
    remaining stem has measure > min_m."""
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_m:
        return stem + repl
    return word


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


def stem(token: str) -> str:
    """Stem a lowercase alphabetic token; anything else passes through."""
    word = token
    if len(word) <= 2 or not word.isalpha() or not word.isascii():
        return word

    # step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # step 1b
    fixup = False
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
        fixup = True
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
        fixup = True
    if fixup:
        if word.endswith(("at", "bl", "iz")):
            word += "e"
        elif _double_cons(word) and word[-1] not in "lsz":
            word = word[:-1]
        elif _measure(word) == 1 and _cvc(word):
            word += "e"

    # step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # step 2
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            word = _replace(word, suffix, repl, 0)
            break

    # step 3
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            word = _replace(word, suffix, repl, 0)
            break

    # step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if _measure(stem_part) > 1:
                if suffix == "ion" and (not stem_part or stem_part[-1] not in "st"):
                    continue
                word = stem_part
            break

    # step 5a
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _cvc(word[:-1])):
            word = word[:-1]

    # step 5b
    if _measure(word) > 1 and _double_cons(word) and word.endswith("l"):
        word = word[:-1]

    return word
