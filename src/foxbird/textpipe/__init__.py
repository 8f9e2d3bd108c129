"""Text pre-processing and feature extraction.

Stages: cleaning (lowercase, contraction expansion, punctuation strip),
whitespace tokenization, stop-word removal, Porter stemming, a rule-based
POS tagger, and bag-of-words / TF-IDF vectorization. IDF uses the natural
log. The stop list and contraction table ship as data files.

A vocabulary is the sorted tuple of its terms; term j is column j of the
``(docs, terms)`` matrices that ``bow_vectorize`` and ``tf_idf`` return.
"""

from __future__ import annotations

import re
from collections import Counter
from importlib import resources

import numpy as np

from .porter import stem

__all__ = [
    "clean_text",
    "tokenize",
    "remove_stopwords",
    "stem",
    "stem_tokens",
    "pos_tag",
    "build_vocabulary",
    "bow_vectorize",
    "tf_idf",
    "preprocess",
]

_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def _data_lines(name: str) -> list[str]:
    text = resources.files("foxbird.textpipe").joinpath("data", name).read_text("utf-8")
    return [line for line in text.splitlines() if line.strip()]


_STOPWORDS = frozenset(_data_lines("stopwords.txt"))
_CONTRACTIONS = {k.strip(): v.strip() for k, _, v in
                 (line.partition("\t") for line in _data_lines("contractions.txt"))}
# longest key first, so "she's" wins over "he's" inside it
_CONTRACTION_RE = re.compile(r"\b(" + "|".join(
    re.escape(k) for k in sorted(_CONTRACTIONS, key=len, reverse=True)) + r")\b")


def clean_text(raw: str) -> str:
    """Lowercase, expand contractions, strip punctuation to spaces, and
    collapse whitespace. Stop-word removal is a separate stage."""
    if not isinstance(raw, str):
        raise ValueError("clean_text expects a str")
    text = raw.lower()
    if "'" in text:  # every contraction has one
        text = _CONTRACTION_RE.sub(lambda m: _CONTRACTIONS[m.group(0)], text)
    # each run of other characters, whitespace included, becomes one space
    return _NON_ALNUM.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    return text.split()


def remove_stopwords(tokens) -> list[str]:
    return [t for t in tokens if t not in _STOPWORDS]


def stem_tokens(tokens) -> list[str]:
    return [stem(t) for t in tokens]


_POS_LEXICON = {
    "DET": {"a", "an", "the", "this", "that", "these", "those", "each",
            "every", "some", "any", "no", "all", "both"},
    "ADP": {"in", "on", "at", "by", "for", "with", "about", "against",
            "between", "into", "through", "during", "before", "after",
            "above", "below", "to", "from", "up", "down", "of", "off",
            "over", "under"},
    "PRON": {"i", "me", "my", "mine", "myself", "you", "your", "yours",
             "he", "him", "his", "she", "her", "hers", "it", "its", "we",
             "us", "our", "ours", "they", "them", "their", "theirs", "who",
             "whom", "which", "what"},
    "CONJ": {"and", "or", "but", "nor", "so", "yet", "because", "although",
             "while", "if", "unless", "since"},
}
_POS_WORD_TAG = {w: tag for tag, words in _POS_LEXICON.items() for w in words}


def pos_tag(tokens) -> list[tuple[str, str]]:
    """Rule-based tagger: closed-class lexicon first, then suffix
    heuristics. Tags: NOUN VERB ADJ ADV PRON DET ADP CONJ NUM X."""
    out = []
    for tok in tokens:
        tag = _POS_WORD_TAG.get(tok)
        if tag is None:
            if not tok:
                tag = "X"
            elif tok.replace(".", "", 1).isdigit():
                tag = "NUM"
            elif not tok.isalpha():
                tag = "X"
            elif tok.endswith("ly"):
                tag = "ADV"
            elif tok.endswith(("ing", "ed")):
                tag = "VERB"
            elif tok.endswith(("ous", "ful", "ive", "able", "ible", "al", "ic")):
                tag = "ADJ"
            else:
                tag = "NOUN"
        out.append((tok, tag))
    return out


def build_vocabulary(corpus, min_doc_freq: int = 1, max_terms: int | None = None) -> tuple[str, ...]:
    """Terms in >= min_doc_freq documents, truncated to the max_terms most
    document-frequent (ties lexicographic), sorted lexicographically."""
    if not corpus:
        raise ValueError("empty corpus")
    if min_doc_freq < 1:
        raise ValueError("min_doc_freq must be >= 1")
    if max_terms is not None and max_terms < 1:
        raise ValueError("empty vocabulary requested")
    df = Counter()
    for tokens in corpus:
        df.update(set(tokens))
    terms = [t for t, c in df.items() if c >= min_doc_freq]
    if max_terms is not None and len(terms) > max_terms:
        terms.sort(key=lambda t: (-df[t], t))
        terms = terms[:max_terms]
    return tuple(sorted(terms))


def bow_vectorize(corpus, vocab: tuple[str, ...]) -> np.ndarray:
    """Raw term counts, docs x terms, as float64; out-of-vocabulary tokens
    are ignored. One ``np.bincount`` over the flat cell ``doc * terms +
    column`` of every token counts them all."""
    n_terms = len(vocab)
    index = {t: j for j, t in enumerate(vocab)}
    cells = [d * n_terms + index[t] for d, tokens in enumerate(corpus)
             for t in tokens if t in index]
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=len(corpus) * n_terms)
    return counts.reshape(len(corpus), n_terms).astype(float)


def doc_frequencies(corpus, vocab: tuple[str, ...]) -> np.ndarray:
    index = {t: j for j, t in enumerate(vocab)}
    n_w = np.zeros(len(vocab))
    for tokens in corpus:
        for t in set(tokens):
            j = index.get(t)
            if j is not None:
                n_w[j] += 1
    return n_w


def tf_idf(corpus, vocab: tuple[str, ...]) -> np.ndarray:
    """TF (raw count) times IDF = ln(N / n_w), docs x terms, where the
    document frequency n_w is the number of nonzero counts in term w's
    column. Terms present in every document get exactly zero."""
    if not corpus:
        raise ValueError("empty corpus")
    counts = bow_vectorize(corpus, vocab)
    n_w = np.count_nonzero(counts, axis=0)
    if np.any(n_w == 0):
        j = int(np.argmin(n_w))
        raise ValueError(f"inconsistent vocabulary: term {vocab[j]!r} appears in no document")
    return counts * np.log(len(corpus) / n_w)


def preprocess(raw: str, use_stemming: bool = True) -> list[str]:
    """Whole pipeline for one document: clean, tokenize, drop stop words,
    optionally stem."""
    tokens = remove_stopwords(tokenize(clean_text(raw)))
    return stem_tokens(tokens) if use_stemming else tokens
