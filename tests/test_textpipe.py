import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import NEG_WORDS, POS_WORDS, SHARED_WORDS

from foxbird import textpipe
from foxbird.textpipe import (
    bow_vectorize,
    build_vocabulary,
    clean_text,
    pos_tag,
    preprocess,
    remove_stopwords,
    stem,
    stem_tokens,
    tf_idf,
    tokenize,
)


def doc_frequencies_reference(corpus, vocab):
    """The number of documents holding each vocabulary term, as floats,
    counted one document at a time: a frozen copy of
    ``textpipe.doc_frequencies``, an independent reference for the document
    frequencies ``tf_idf`` and the tuning objective take from count
    matrices."""
    index = {t: j for j, t in enumerate(vocab)}
    n_w = np.zeros(len(vocab))
    for tokens in corpus:
        for t in set(tokens):
            j = index.get(t)
            if j is not None:
                n_w[j] += 1
    return n_w


def tf_idf_oracle(corpus, terms):
    """Brute-force TF-IDF with explicit loops, natural-log IDF."""
    n = len(corpus)
    out = np.zeros((n, len(terms)))
    for j, term in enumerate(terms):
        n_w = sum(1 for doc in corpus if term in doc)
        idf = math.log(n / n_w)
        for d, doc in enumerate(corpus):
            out[d, j] = doc.count(term) * idf
    return out


# The Porter stemmer as it was written before it became rule tables over
# one consonant/vowel form, frozen, so that ``stem`` must keep every output
# of it.
FROZEN_VOWELS = "aeiou"


def frozen_is_cons(word, i):
    c = word[i]
    if c in FROZEN_VOWELS:
        return False
    if c == "y":
        return i == 0 or not frozen_is_cons(word, i - 1)
    return True


def frozen_measure(stem_part):
    m = 0
    prev_vowel = False
    for i in range(len(stem_part)):
        if frozen_is_cons(stem_part, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def frozen_has_vowel(stem_part):
    return any(not frozen_is_cons(stem_part, i) for i in range(len(stem_part)))


def frozen_double_cons(word):
    return (len(word) >= 2 and word[-1] == word[-2]
            and frozen_is_cons(word, len(word) - 1))


def frozen_cvc(word):
    if len(word) < 3:
        return False
    return (frozen_is_cons(word, len(word) - 3)
            and not frozen_is_cons(word, len(word) - 2)
            and frozen_is_cons(word, len(word) - 1)
            and word[-1] not in "wxy")


def frozen_replace(word, suffix, repl, min_m):
    stem_part = word[: len(word) - len(suffix)]
    if frozen_measure(stem_part) > min_m:
        return stem_part + repl
    return word


FROZEN_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

FROZEN_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

FROZEN_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def frozen_stem(token):
    word = token
    if len(word) <= 2 or not word.isalpha() or not word.isascii():
        return word

    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    fixup = False
    if word.endswith("eed"):
        if frozen_measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and frozen_has_vowel(word[:-2]):
        word = word[:-2]
        fixup = True
    elif word.endswith("ing") and frozen_has_vowel(word[:-3]):
        word = word[:-3]
        fixup = True
    if fixup:
        if word.endswith(("at", "bl", "iz")):
            word += "e"
        elif frozen_double_cons(word) and word[-1] not in "lsz":
            word = word[:-1]
        elif frozen_measure(word) == 1 and frozen_cvc(word):
            word += "e"

    if word.endswith("y") and frozen_has_vowel(word[:-1]):
        word = word[:-1] + "i"

    for suffix, repl in FROZEN_STEP2:
        if word.endswith(suffix):
            word = frozen_replace(word, suffix, repl, 0)
            break

    for suffix, repl in FROZEN_STEP3:
        if word.endswith(suffix):
            word = frozen_replace(word, suffix, repl, 0)
            break

    for suffix in FROZEN_STEP4:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if frozen_measure(stem_part) > 1:
                if suffix == "ion" and (not stem_part or stem_part[-1] not in "st"):
                    continue
                word = stem_part
            break

    if word.endswith("e"):
        m = frozen_measure(word[:-1])
        if m > 1 or (m == 1 and not frozen_cvc(word[:-1])):
            word = word[:-1]

    if frozen_measure(word) > 1 and frozen_double_cons(word) and word.endswith("l"):
        word = word[:-1]

    return word


# Stems to join with one and two suffixes: ending in a consonant, a vowel,
# a y after a consonant and after a vowel, a double consonant, a *o stem,
# Porter's own examples and the syllables of perfbench's corpus.
PIN_STEMS = ["", "a", "e", "y", "yy", "b", "tr", "sky", "ray", "boy", "hop",
             "fil", "siz", "wax", "bow", "happ", "fall", "agr", "feed",
             "relat", "condit", "gener", "adjust", "oper", "syzyg", "kalo",
             "termi", "vansol"]
PIN_PAIR_STEMS = ["", "y", "hop", "ray", "relat", "syzyg", "kalo"]
PIN_SUFFIXES = sorted(
    {"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
     "e", "ll", "ly", "sion", "tion"}
    | {part for rule in FROZEN_STEP2 + FROZEN_STEP3 for part in rule if part}
    | set(FROZEN_STEP4))


def suffixed_words():
    one = [s + a for s in PIN_STEMS for a in PIN_SUFFIXES]
    two = [s + a + b for s in PIN_PAIR_STEMS for a in PIN_SUFFIXES
           for b in PIN_SUFFIXES]
    return one + two


def aeyst_words():
    words, level = [], [""]
    for _ in range(5):
        level = [w + c for w in level for c in "aeyst"]
        words += level
    return words


def random_words():
    rng = np.random.Generator(np.random.PCG64(19))
    letters = np.array(list("yyyyyyaeioubcdlnrstwxzY"))
    return ["".join(rng.choice(letters, size=int(rng.integers(3, 12))))
            for _ in range(4000)]


def corpus_words():
    words = set(POS_WORDS + NEG_WORDS + SHARED_WORDS) | textpipe._STOPWORDS
    for key, value in textpipe._CONTRACTIONS.items():
        words |= {key, *re.split(r"\W+", key), *value.split()}
    # and every word the suite's own files write into their corpora
    for path in sorted(Path(__file__).parent.glob("*.py")):
        words |= set(re.findall(r"[a-z]+", path.read_text(encoding="utf-8")))
    return sorted(words)


PINNED_WORDS = {
    "suffixed": suffixed_words,
    "aeyst": aeyst_words,
    "random": random_words,
    "corpus": corpus_words,
}


def frozen_clean_text(raw):
    """``clean_text`` as it was before it skipped the contraction pass on
    text with no apostrophe, with its own copies of the three patterns."""
    contraction_re = re.compile(r"\b(" + "|".join(
        re.escape(k) for k in sorted(textpipe._CONTRACTIONS, key=len, reverse=True)) + r")\b")
    text = contraction_re.sub(lambda m: textpipe._CONTRACTIONS[m.group(0)], raw.lower())
    text = re.sub(r"[^0-9a-z]+", " ", text)
    return re.sub(r"\s+", " ", text).strip()


@st.composite
def mixed_case(draw, words):
    word = draw(st.sampled_from(words))
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if u else c for c, u in zip(word, upper))


CONTRACTION_TEXT = st.lists(st.one_of(
    mixed_case(sorted(textpipe._CONTRACTIONS)),
    st.sampled_from(["'", "''", "\u2019", "`"]),  # bare apostrophes and look-alikes
    st.sampled_from(list(".,;:!?-_\"()0")),
    st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\x0b", "\x0c", "\x1c", "\x85",
                     "\u2028", "\u3000"]),
    mixed_case(["s", "t", "he", "she", "not", "won", "I", "\u0130", "\u00df"]),
), max_size=12).map("".join)


class TestCleanText:
    def test_lowercase_and_punct(self):
        assert clean_text("Hello, World!") == "hello world"

    def test_whitespace_collapse(self):
        assert clean_text("a \t b\n\nc") == "a b c"

    def test_contraction_expansion(self):
        assert clean_text("I can't go") == "i cannot go"

    def test_longest_contraction_wins(self):
        # the shipped table holds both "he's" and "she's"
        assert clean_text("she's here") == "she is here"

    def test_digits_kept(self):
        assert clean_text("route 66!") == "route 66"

    def test_empty(self):
        assert clean_text("") == ""
        assert clean_text("  ...  ") == ""

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            clean_text(None)

    def test_every_contraction_has_an_apostrophe(self):
        # clean_text runs the contraction pass only on text holding one
        assert all("'" in key for key in textpipe._CONTRACTIONS)

    @settings(max_examples=400, deadline=None)
    @given(CONTRACTION_TEXT)
    def test_equals_the_frozen_cleaner(self, raw):
        assert clean_text(raw) == frozen_clean_text(raw)


class TestTokenizeStopwords:
    def test_tokenize(self):
        assert tokenize("a b  c") == ["a", "b", "c"]
        assert tokenize("") == []

    def test_default_stoplist_applied(self):
        got = remove_stopwords(["the", "fox", "is", "on", "a", "hill"])
        assert got == ["fox", "hill"]

    def test_negation_kept(self):
        # "not" is deliberately absent from the default stop list
        assert "not" in remove_stopwords(["not", "good"])

    def test_default_lists_nonempty(self):
        assert len(textpipe._STOPWORDS) > 50
        assert "can't" in textpipe._CONTRACTIONS


class TestStemming:
    @pytest.mark.parametrize("word,expected", [
        ("running", "run"),
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("cats", "cat"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("motoring", "motor"),
        ("happy", "happi"),
        ("relational", "relat"),
        ("conditional", "condit"),
        ("triplicate", "triplic"),
        ("hopeful", "hope"),
        ("formalize", "formal"),
        ("activate", "activ"),
        ("probate", "probat"),
        ("controller", "control"),
        ("generalization", "gener"),
        # Porter (1980)'s examples of the rules no word above reaches: step
        # 1a's "ss", both "+e" fix-ups of step 1b, a "y" after a consonant,
        # a stem too short for *o, a measure-0 stem kept and step 4's "ion"
        # after neither s nor t
        ("caress", "caress"),
        ("conflated", "conflat"),
        ("troubled", "troubl"),
        ("sized", "size"),
        ("filing", "file"),
        ("sky", "sky"),
        ("are", "ar"),
        ("rational", "ration"),
        ("opinion", "opinion"),
    ])
    def test_known_stems(self, word, expected):
        assert stem(word) == expected

    @pytest.mark.parametrize("kind", sorted(PINNED_WORDS))
    def test_equals_frozen_stemmer(self, kind):
        words = PINNED_WORDS[kind]()
        assert len(words) > 500
        assert [w for w in words if stem(w) != frozen_stem(w)] == []

    @pytest.mark.parametrize("kind", sorted(PINNED_WORDS))
    def test_memo_answers_as_the_rules_do(self, kind):
        # each word asked twice, so the second answer comes from the memo
        words = PINNED_WORDS[kind]()
        assert stem.cache_info().maxsize >= len(words)
        for _ in range(2):
            assert [w for w in words
                    if not stem(w) == stem.__wrapped__(w) == frozen_stem(w)] == []

    def test_memo_is_bounded(self):
        maxsize = stem.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize < math.inf

    def test_short_words_untouched(self):
        assert stem("is") == "is"
        assert stem("a") == "a"

    def test_non_alpha_untouched(self):
        assert stem("42") == "42"
        assert stem("can't") == "can't"

    def test_stem_tokens(self):
        assert stem_tokens(["running", "cats"]) == ["run", "cat"]

    def test_stems_never_longer_than_input(self):
        words = ["running", "flies", "happily", "nationalism", "adjustable",
                 "defensible", "irritant", "replacement", "dependent"]
        for w, s in zip(words, stem_tokens(words)):
            assert len(s) <= len(w)
            assert s  # never stems to the empty string


class TestPosTag:
    def test_lexicon_tags(self):
        got = dict(pos_tag(["the", "on", "they", "and"]))
        assert got == {"the": "DET", "on": "ADP", "they": "PRON", "and": "CONJ"}

    def test_suffix_rules(self):
        got = dict(pos_tag(["quickly", "jumping", "jumped", "famous", "7", "x1"]))
        assert got["quickly"] == "ADV"
        assert got["jumping"] == "VERB"
        assert got["jumped"] == "VERB"
        assert got["famous"] == "ADJ"
        assert got["7"] == "NUM"
        assert got["x1"] == "X"

    def test_empty_token_is_x(self):
        assert pos_tag(["", "fox"]) == [("", "X"), ("fox", "NOUN")]

    def test_default_noun(self):
        assert pos_tag(["fox"]) == [("fox", "NOUN")]

    def test_preserves_order_and_length(self):
        toks = ["the", "quick", "fox", "ran"]
        tagged = pos_tag(toks)
        assert [t for t, _ in tagged] == toks


class TestVocabulary:
    def test_sorted_terms(self):
        v = build_vocabulary([["b", "a"], ["c", "a"]])
        assert v == ("a", "b", "c")

    def test_min_doc_freq(self):
        v = build_vocabulary([["a", "b"], ["a", "c"]], min_doc_freq=2)
        assert v == ("a",)

    def test_repeats_within_doc_count_once(self):
        v = build_vocabulary([["a", "a", "a"]], min_doc_freq=2)
        assert v == ()

    def test_max_terms_by_doc_freq_then_lexicographic(self):
        corpus = [["a", "b", "z"], ["b", "z"], ["z"]]
        v = build_vocabulary(corpus, max_terms=2)
        assert v == ("b", "z")
        v1 = build_vocabulary([["a", "b"]], max_terms=1)
        assert v1 == ("a",)  # tie, lexicographic

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([])

    def test_zero_max_terms_rejected(self):
        with pytest.raises(ValueError, match="empty vocabulary"):
            build_vocabulary([["a"]], max_terms=0)

    def test_index(self):
        # column j counts term vocab[j], in the tuple's order
        m = bow_vectorize([["a", "a", "b"]], ("b", "a"))
        np.testing.assert_array_equal(m, [[1, 2]])


class TestBowTfIdf:
    def test_bow_counts(self):
        m = bow_vectorize([["a", "a", "b"], ["b"]], ("a", "b"))
        np.testing.assert_array_equal(m, [[2, 1], [0, 1]])

    def test_bow_ignores_oov(self):
        m = bow_vectorize([["a", "zzz"]], ("a",))
        np.testing.assert_array_equal(m, [[1]])

    def test_bow_equals_the_frozen_counter_vectorizer(self):
        # the bincount vectorizer against the Counter-per-document one it
        # replaced: the same float64 bytes, shape and C order, on corpora
        # with empty documents, out-of-vocabulary words, an empty vocabulary
        # and no documents at all
        def frozen(corpus, vocab):
            index = {t: j for j, t in enumerate(vocab)}
            m = np.zeros((len(corpus), len(vocab)))
            for d, tokens in enumerate(corpus):
                for t, c in Counter(tokens).items():
                    j = index.get(t)
                    if j is not None:
                        m[d, j] = c
            return m

        rng = np.random.Generator(np.random.PCG64(9))
        words = [f"w{k}" for k in range(40)]
        cases = [([], ()), ([], ("a",)), ([["a"], []], ()), ([[], []], ("a", "b"))]
        for _ in range(200):
            corpus = [list(rng.choice(words, int(rng.integers(0, 30))))
                      for _ in range(int(rng.integers(0, 20)))]
            vocab = tuple(sorted(rng.choice(words, int(rng.integers(0, 41)), replace=False)))
            cases.append((corpus, vocab))
        for corpus, vocab in cases:
            got, want = bow_vectorize(corpus, vocab), frozen(corpus, vocab)
            assert (got.dtype, got.shape, got.flags.c_contiguous, got.tobytes()) == \
                (want.dtype, want.shape, True, want.tobytes())

    def test_hand_value(self):
        # 4 docs, "rare" in 1 of them twice: tf-idf = 2 * ln 4
        corpus = [["rare", "rare", "x"], ["x"], ["x"], ["x"]]
        v = build_vocabulary(corpus)
        m = tf_idf(corpus, v)
        j = v.index("rare")
        assert m[0, j] == pytest.approx(2 * math.log(4), abs=1e-12)

    def test_everywhere_term_is_zero(self):
        corpus = [["x", "a"], ["x", "b"], ["x", "c"]]
        v = build_vocabulary(corpus)
        m = tf_idf(corpus, v)
        assert np.all(m[:, v.index("x")] == 0.0)

    def test_matches_oracle(self):
        corpus = [["a", "b", "a"], ["b", "c"], ["a", "c", "c", "d"], ["d"]]
        v = build_vocabulary(corpus)
        m = tf_idf(corpus, v)
        np.testing.assert_allclose(m, tf_idf_oracle(corpus, v),
                                   atol=1e-12)

    def test_bytes_equal_counts_times_log_of_document_frequencies(self):
        # words repeat within documents, and the vocabulary's frequency floor
        # and cap leave some of them out of vocabulary
        rng = np.random.Generator(np.random.PCG64(5))
        words = [f"w{k}" for k in range(30)]
        for _ in range(200):
            corpus = [list(rng.choice(words[:int(rng.integers(1, 31))], int(rng.integers(0, 20))))
                      for _ in range(int(rng.integers(1, 25)))]
            vocab = build_vocabulary(corpus, int(rng.integers(1, 4)),
                                     int(rng.integers(1, 40)) if rng.random() < 0.5 else None)
            want = bow_vectorize(corpus, vocab) * np.log(
                len(corpus) / doc_frequencies_reference(corpus, vocab))
            assert tf_idf(corpus, vocab).tobytes() == want.tobytes()

    def test_unseen_vocab_term_rejected(self):
        with pytest.raises(ValueError, match="inconsistent vocabulary"):
            tf_idf([["a"]], ("a", "ghost"))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            tf_idf([], ("a",))


class TestPreprocess:
    def test_full_pipeline(self):
        # "aren't" expands to "are not"; "are" is a stop word, "not" is kept
        got = preprocess("The foxes aren't running quickly!")
        assert got == ["fox", "not", "run", "quickli"]

    def test_no_stemming(self):
        got = preprocess("The foxes running", use_stemming=False)
        assert got == ["foxes", "running"]
