"""Text pre-processing and feature extraction.

Stages: cleaning (lowercase, contraction expansion, punctuation strip),
whitespace tokenization, stop-word removal, Porter stemming, a rule-based
POS tagger, and bag-of-words / TF-IDF vectorization. IDF uses the natural
log. The default stop list and contraction table ship as data files and can
be overridden.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .porter import stem

__all__ = [
    "Vocabulary",
    "TermDocMatrix",
    "default_stopwords",
    "default_contractions",
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
_WS = re.compile(r"\s+")


def _data_text(name: str) -> str:
    return resources.files("foxbird.textpipe").joinpath("data", name).read_text("utf-8")


def default_stopwords() -> frozenset[str]:
    return frozenset(w for w in _data_text("stopwords.txt").splitlines() if w)


def default_contractions() -> dict[str, str]:
    table = {}
    for line in _data_text("contractions.txt").splitlines():
        if line.strip():
            key, _, val = line.partition("\t")
            table[key.strip()] = val.strip()
    return table


def _contraction_pattern(table: dict[str, str]) -> re.Pattern:
    # longest key first, so "she's" wins over "he's" inside it
    keys = sorted(table, key=len, reverse=True)
    return re.compile(r"\b(" + "|".join(re.escape(k) for k in keys) + r")\b")


_DEFAULT_CONTRACTIONS = default_contractions()
_DEFAULT_CONTRACTION_RE = _contraction_pattern(_DEFAULT_CONTRACTIONS)
_DEFAULT_STOPWORDS = default_stopwords()


def clean_text(raw: str, contractions: dict[str, str] | None = None) -> str:
    """Lowercase, expand contractions, strip punctuation to spaces, and
    collapse whitespace. Stop-word removal is a separate stage."""
    if not isinstance(raw, str):
        raise ValueError("clean_text expects a str")
    text = raw.lower()
    table = _DEFAULT_CONTRACTIONS if contractions is None else contractions
    if table:
        pattern = (_DEFAULT_CONTRACTION_RE if contractions is None
                   else _contraction_pattern(table))
        text = pattern.sub(lambda m: table[m.group(0)], text)
    text = _NON_ALNUM.sub(" ", text)
    return _WS.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    return text.split()


def remove_stopwords(tokens, stoplist=None) -> list[str]:
    stoplist = _DEFAULT_STOPWORDS if stoplist is None else stoplist
    return [t for t in tokens if t not in stoplist]


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


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]

    @property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)


@dataclass
class TermDocMatrix:
    values: np.ndarray  # docs x terms
    vocab: Vocabulary
    mode: str  # "counts" or "tfidf"


def build_vocabulary(corpus, min_doc_freq: int = 1, max_terms: int | None = None) -> Vocabulary:
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
    return Vocabulary(tuple(sorted(terms)))


def bow_vectorize(corpus, vocab: Vocabulary) -> TermDocMatrix:
    """Raw term counts; out-of-vocabulary tokens are ignored."""
    index = vocab.index
    m = np.zeros((len(corpus), len(vocab)))
    for d, tokens in enumerate(corpus):
        for t, c in Counter(tokens).items():
            j = index.get(t)
            if j is not None:
                m[d, j] = c
    return TermDocMatrix(m, vocab, "counts")


def doc_frequencies(corpus, vocab: Vocabulary) -> np.ndarray:
    index = vocab.index
    n_w = np.zeros(len(vocab))
    for tokens in corpus:
        for t in set(tokens):
            j = index.get(t)
            if j is not None:
                n_w[j] += 1
    return n_w


def tf_idf(corpus, vocab: Vocabulary, idf: np.ndarray | None = None) -> TermDocMatrix:
    """TF (raw count) times IDF = ln(N / n_w). Terms present in every
    document get exactly zero. A precomputed idf vector may be supplied to
    weight one corpus with another's statistics."""
    if not corpus:
        raise ValueError("empty corpus")
    counts = bow_vectorize(corpus, vocab)
    if idf is None:
        n_w = doc_frequencies(corpus, vocab)
        if np.any(n_w == 0):
            j = int(np.argmin(n_w))
            raise ValueError(f"inconsistent vocabulary: term {vocab.terms[j]!r} appears in no document")
        idf = np.log(len(corpus) / n_w)
    return TermDocMatrix(counts.values * idf, vocab, "tfidf")


def preprocess(raw: str, stoplist=None, contractions=None, use_stemming: bool = True) -> list[str]:
    """Whole pipeline for one document: clean, tokenize, drop stop words,
    optionally stem."""
    tokens = remove_stopwords(tokenize(clean_text(raw, contractions)), stoplist)
    return stem_tokens(tokens) if use_stemming else tokens
