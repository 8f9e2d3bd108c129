import math

import numpy as np
import pytest

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
                len(corpus) / textpipe.doc_frequencies(corpus, vocab))
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
