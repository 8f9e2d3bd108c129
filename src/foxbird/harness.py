"""Experiment harness: corpus ingestion, hyperparameter spaces, the
naive-Bayes/TF-IDF tuning objective, optimizer races, and report emission.

Reproducibility: a master seed derives per-(method, run) child generators
via ``numpy.random.SeedSequence(master_seed, spawn_key=(method_index,
run_index))``, so every number in a report is a pure function of the config
and the master seed. Wall times are kept out of the deterministic report
files and written to a separate timings sidecar.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, textpipe
from .benchmarks import BENCHMARKS, get_benchmark
from .core import CountingObjective, SearchSpace, _width_overflow, make_rng
from .hraha import OptimizationResult
from .hraha import run as run_hraha
from .metrics import macro_f1

# the label-list metrics, kept as the module attributes perfbench traces
from .metrics import accuracy as accuracy_metric  # noqa: F401
from .metrics import f_score as f_score_metric  # noqa: F401

__all__ = [
    "LabeledCorpus",
    "HyperparamDim",
    "HyperparamSpace",
    "TrialReport",
    "DataError",
    "ConfigError",
    "BenchmarkTask",
    "ClassifierTask",
    "Experiment",
    "parse_config",
    "load_corpus",
    "default_tuning_space",
    "classifier_objective",
    "train_nb",
    "predict_nb",
    "child_rng",
    "run_method",
    "run_random_search",
    "run_experiment",
    "emit_report",
    "METHODS",
]

METHODS = ("hraha", "aha", "rfo", "pso")


class DataError(ValueError):
    """Malformed or insufficient input data."""


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

@dataclass
class LabeledCorpus:
    ids: list[str]
    texts: list[str]
    labels: list[str]
    train_idx: list[int]
    test_idx: list[int]

    @property
    def label_set(self) -> list[str]:
        return sorted(set(self.labels))


def _read_text(path) -> str:
    """The whole text of a UTF-8 file, less a leading byte-order mark, newlines
    untranslated; a file that cannot be read or decoded is a DataError naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e}") from None
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None


def _parse_rows(path, fmt: str):
    rows = []
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
        try:
            missing = {"id", "text", "label"} - set(reader.fieldnames or [])
            if missing:
                raise DataError(f"missing column(s): {', '.join(sorted(missing))}")
            for row in reader:
                # a short row's missing fields are None, a long row's extras keyed by None
                if None in row or None in row.values():
                    raise DataError(f"malformed row at line {reader.line_num}")
                rows.append((row["id"], row["text"], row["label"]))
        except csv.Error as e:  # a field over csv.field_size_limit(), or a NUL before 3.11
            # DictReader's own line_num is only set once a row is read
            raise DataError(f"malformed row at line {reader.reader.line_num}: {e}") from None
    elif fmt == "jsonl":
        # newline=None splits lines as a file opened in text mode does
        for lineno, line in enumerate(io.StringIO(_read_text(path), newline=None), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as e:  # bad JSON, too deep, or an int too long
                raise DataError(f"malformed row at line {lineno}: {e}") from None
            if not isinstance(obj, dict):
                raise DataError(f"malformed row at line {lineno}: expected an object")
            if not {"id", "text", "label"} <= set(obj):
                missing = {"id", "text", "label"} - set(obj)
                raise DataError(f"missing column(s) at line {lineno}: "
                                f"{', '.join(sorted(missing))}")
            for key in ("id", "text", "label"):
                if isinstance(obj[key], bool) or not isinstance(obj[key], (str, int, float)):
                    raise DataError(f"malformed row at line {lineno}: "
                                    f"{key} must be a string or a number")
            rows.append((str(obj["id"]), str(obj["text"]), str(obj["label"])))
    else:
        raise DataError(f"unknown corpus format {fmt!r} (expected csv or jsonl)")
    return rows


def load_corpus(path, fmt: str = "csv", split_ratio: float = 0.8, seed: int = 0) -> LabeledCorpus:
    """Parse a labeled corpus and make a deterministic stratified split.

    Every label is guaranteed at least one training document; a split that
    leaves no test document is a DataError."""
    rows = _parse_rows(path, fmt)
    if len(rows) < 10:
        raise DataError(f"corpus too small: {len(rows)} documents (need >= 10)")
    labels = [r[2] for r in rows]
    if len(set(labels)) < 2:
        raise DataError("single-label corpus: need at least 2 distinct labels")
    if not 0 < split_ratio < 1:
        raise DataError(f"split_ratio must be in (0, 1), got {split_ratio}")
    rng = make_rng(seed)
    by_label: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    train_idx, test_idx = [], []
    for lab in sorted(by_label):
        shuffled = rng.permutation(by_label[lab])
        n_train = max(1, round(split_ratio * len(shuffled)))  # <= len: split_ratio < 1
        train_idx.extend(int(i) for i in shuffled[:n_train])
        test_idx.extend(int(i) for i in shuffled[n_train:])
    if not test_idx:
        raise DataError(f"split_ratio {split_ratio} leaves no test documents: "
                        f"{len(train_idx)} train, 0 test")
    train_idx.sort()
    test_idx.sort()
    return LabeledCorpus([r[0] for r in rows], [r[1] for r in rows], labels,
                         train_idx, test_idx)


# ---------------------------------------------------------------------------
# Hyperparameter space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperparamDim:
    name: str
    kind: str  # "continuous" | "integer" | "categorical"
    lo: float = 0.0
    hi: float = 1.0
    choices: tuple = ()

    def __post_init__(self):
        if self.kind not in ("continuous", "integer", "categorical"):
            raise ValueError(f"unknown dimension kind {self.kind!r}")
        if self.kind == "categorical" and not self.choices:
            raise ValueError(f"categorical dimension {self.name!r} needs choices")
        if self.kind != "categorical" and not self.lo < self.hi:
            raise ValueError(f"dimension {self.name!r} has inverted bounds")
        if self.kind == "integer" and math.isfinite(self.lo) and math.ceil(self.lo) > self.hi:
            raise ValueError(f"integer dimension {self.name!r} has no integer in "
                             f"[{self.lo}, {self.hi}]")

    def box_bounds(self) -> tuple[float, float]:
        if self.kind == "categorical":
            return 0.0, float(len(self.choices))
        return float(self.lo), float(self.hi)

    def encode(self, value) -> float:
        if self.kind == "categorical":
            return self.choices.index(value) + 0.5
        return float(value)

    def decode(self, x: float):
        if not math.isfinite(x):
            raise ValueError(f"dimension {self.name!r} got a non-finite coordinate {x!r}")
        if self.kind == "continuous":
            return float(min(max(x, self.lo), self.hi))
        if self.kind == "integer":
            v = math.floor(x + 0.5)  # round half up, then clamp to ceil(lo)..floor(hi)
            if v < self.lo:
                return math.ceil(self.lo)
            return math.floor(self.hi) if v > self.hi else v
        i = min(max(int(math.floor(x)), 0), len(self.choices) - 1)
        return self.choices[i]


@dataclass(frozen=True)
class HyperparamSpace:
    dims: tuple[HyperparamDim, ...]

    def to_box(self) -> SearchSpace:
        lo, hi = zip(*(d.box_bounds() for d in self.dims))
        return SearchSpace(np.array(lo), np.array(hi))

    def encode(self, values: dict) -> np.ndarray:
        return np.array([d.encode(values[d.name]) for d in self.dims])

    def decode(self, x) -> dict:
        # not zip(strict=True): numpy ends an array's iteration with an
        # IndexError, which added ~0.8 us per call on a 2-core VM
        if len(x) != len(self.dims):
            raise ValueError(f"point has {len(x)} coordinates, space has {len(self.dims)}")
        return {d.name: d.decode(float(v)) for d, v in zip(self.dims, x)}


def default_tuning_space() -> HyperparamSpace:
    """Tunables of the TF-IDF / naive-Bayes text classifier."""
    return HyperparamSpace((
        HyperparamDim("min_doc_freq", "integer", 1, 5),
        HyperparamDim("max_terms", "integer", 10, 2000),
        HyperparamDim("use_stemming", "categorical", choices=(False, True)),
        HyperparamDim("nb_smoothing", "continuous", 0.01, 5.0),
    ))


# ---------------------------------------------------------------------------
# Naive Bayes classifier objective
# ---------------------------------------------------------------------------

def _codes(labels, classes: list) -> np.ndarray:
    """The class code (index into ``classes``) of each label; -1 for a label
    outside ``classes``."""
    index = {c: k for k, c in enumerate(classes)}
    return np.array([index.get(lab, -1) for lab in labels], dtype=np.intp)


def _log_prior(sizes, n_rows: int) -> np.ndarray:
    """Log class priors from class sizes; an empty class counts as one row."""
    return np.array([math.log(max(int(n), 1) / n_rows) for n in sizes])


def _class_totals(X: np.ndarray, codes: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class feature totals ``X[codes == k].sum(axis=0)``, C-ordered. Numpy
    sums a class's rows one by one in row order, but a single feature
    pairwise, so the totals of one column are not that column of the totals
    of several."""
    return np.array([X[codes == k].sum(axis=0)
                     for k in range(n_classes)]).reshape(n_classes, X.shape[1])


def _nb_log_lik(totals: np.ndarray, smoothing, row_totals: list) -> np.ndarray:
    """Naive-Bayes log likelihoods from C-ordered per-class feature totals
    and their per-class sums ``row_totals`` (``totals.sum(axis=1).tolist()``):
    an ``(m, classes, features)`` stack with one slice per smoothing, for a
    float or a sequence of ``m`` floats.

    Each slice has the bits that smoothing alone gives: ``np.log`` works
    element by element, and the normalisers use ``math.log`` per slice and
    class, which can differ from ``np.log`` in the last bit."""
    smoothings = np.array(smoothing, dtype=float).reshape(-1, 1, 1)
    n_feat = totals.shape[1]
    log_lik = totals + smoothings
    np.log(log_lik, out=log_lik)
    log_lik -= np.array([[math.log(t + s * n_feat) for t in row_totals]
                         for s in smoothings.ravel().tolist()]).reshape(len(smoothings), -1, 1)
    return log_lik


def train_nb(X: np.ndarray, labels: list, classes: list, smoothing: float):
    """Multinomial naive Bayes on non-negative feature rows."""
    codes = _codes(labels, classes)
    sizes = np.bincount(codes[codes >= 0], minlength=len(classes))
    totals = _class_totals(X, codes, len(classes))
    return (_log_prior(sizes, X.shape[0]),
            _nb_log_lik(totals, smoothing, totals.sum(axis=1).tolist())[0])


def _nb_codes(X: np.ndarray, log_prior, log_lik) -> np.ndarray:
    """The class code (row index of a ``log_lik`` slice) of each row's
    highest naive-Bayes score under each slice of a stack (or under one
    matrix), slice after slice in one flat array; ties go to the lowest code.

    The stacked product multiplies ``X`` by each slice on its own, with the
    shape and layout of ``X @ log_lik[i].T``, so every slice keeps the bits
    of that product; one product of ``X`` and the slices joined side by side
    would not."""
    return (X @ log_lik.swapaxes(-1, -2) + log_prior).argmax(axis=-1).ravel()


def predict_nb(X: np.ndarray, classes: list, log_prior, log_lik) -> list:
    return [classes[i] for i in _nb_codes(X, log_prior, log_lik).tolist()]


class _PreparedCorpus:
    """Everything an evaluation needs that its hyperparameters do not change.

    Per stemming variant this holds, over the ``max_terms_cap`` most
    document-frequent training terms (ties lexicographic), columns in
    lexicographic order and weighted by IDF (which depends on the column
    alone): the per-class totals of the training matrix, and the one column
    of it a one-term fit reads (the most frequent term's); the transposed
    test matrix; the training document frequencies (each column's nonzero
    count in the training count matrix); the column order by (-df, term);
    and ``at_least``, whose item m is the number of terms with df >= m. The
    terms with df >= ``min_doc_freq`` lead that order, so an evaluation only
    selects columns, with the values and summing order of a build of its own.

    The train and test labels are held as class codes (indices into
    ``classes``), with the classes' ``repr`` order, in which
    ``metrics.f_score`` sums them, and the gold count of each class in that
    order.

    ``wholes``, the one memo, holds ``columns`` per (use_stemming, term
    count) for a whole prefix, a count that is ``at_least[m]`` for some m:
    at most one entry per stemming variant and document frequency among its
    terms, each no wider than the prepared vocabulary, read-only, and for a
    prefix of every term the prepared arrays themselves. It lives and dies
    with its instance."""

    def __init__(self, corpus: LabeledCorpus, max_terms_cap: int | None):
        plain = [textpipe.preprocess(t, use_stemming=False) for t in corpus.texts]
        stems = {w: textpipe.stem(w) for w in {w for doc in plain for w in doc}}
        self.classes = corpus.label_set
        self.train_codes = _codes([corpus.labels[i] for i in corpus.train_idx], self.classes)
        self.test_codes = _codes([corpus.labels[i] for i in corpus.test_idx], self.classes)
        self.repr_order = np.array(sorted(range(len(self.classes)),
                                          key=lambda k: repr(self.classes[k])), dtype=np.intp)
        self.gold_counts = np.bincount(self.test_codes,
                                       minlength=len(self.classes))[self.repr_order].tolist()
        n_classes, n_train = len(self.classes), len(self.train_codes)
        self.variants = {}
        for stemmed in (False, True):
            tokens = [[stems[w] for w in doc] for doc in plain] if stemmed else plain
            train_tokens = [tokens[i] for i in corpus.train_idx]
            test_tokens = [tokens[i] for i in corpus.test_idx]
            vocab = textpipe.build_vocabulary(train_tokens, 1, max_terms_cap)
            train = textpipe.bow_vectorize(train_tokens, vocab)
            df = np.count_nonzero(train, axis=0)  # >= 1: every term is a training term
            order = np.lexsort((np.arange(len(vocab)), -df))
            idf = np.log(n_train / df)
            train *= idf  # in place, to hold one matrix
            test_t = np.ascontiguousarray((textpipe.bow_vectorize(test_tokens, vocab) * idf).T)
            at_least = np.cumsum(np.bincount(df)[::-1])[::-1].tolist()
            totals = _class_totals(train, self.train_codes, n_classes)
            self.variants[stemmed] = train[:, order[:1]], totals, test_t, df, order, at_least
        self.log_prior = _log_prior(np.bincount(self.train_codes, minlength=n_classes), n_train)
        self.wholes = {}

    def fit_key(self, params: dict):
        """What a fit of a configuration reads: ``(use_stemming, n_terms,
        nb_smoothing)``, where ``n_terms`` is how many columns it is scored
        on, the terms with df >= ``min_doc_freq``, at most ``max_terms`` of
        them. None for a degenerate configuration: a ``min_doc_freq`` or
        ``max_terms`` below 1, an ``nb_smoothing`` <= 0, whose log likelihoods
        would not be finite, or no term left."""
        min_doc_freq, max_terms = int(params["min_doc_freq"]), int(params["max_terms"])
        smoothing = float(params["nb_smoothing"])
        if min_doc_freq < 1 or max_terms < 1 or smoothing <= 0:
            return None
        use_stemming = bool(params["use_stemming"])
        at_least = self.variants[use_stemming][5]
        n_terms = min(at_least[min_doc_freq] if min_doc_freq < len(at_least) else 0, max_terms)
        return (use_stemming, n_terms, smoothing) if n_terms else None

    def columns(self, use_stemming: bool, n_terms: int):
        """The per-class totals, the test matrix and the per-class sums of
        the totals of the ``n_terms`` >= 1 most document-frequent columns,
        in lexicographic order; memoised in ``wholes`` for a whole prefix."""
        key = use_stemming, n_terms
        if key in self.wholes:
            return self.wholes[key]
        first, totals, test_t, df, order, at_least = self.variants[use_stemming]
        if n_terms == len(order):  # every column: the prepared arrays, uncopied
            test = test_t.T
        else:
            cols = np.sort(order[:n_terms])
            if n_terms == 1:  # summed pairwise, see _class_totals
                totals = _class_totals(first, self.train_codes, len(self.classes))
            else:
                totals = np.take(totals, cols, axis=1)
            # F-ordered, as test[:, cols] is: a matrix product may round by layout
            test = np.take(test_t, cols, axis=0).T
        selection = totals, test, totals.sum(axis=1).tolist()
        if at_least[df[order[n_terms - 1]]] == n_terms:  # no term of the last one's df left out
            totals.flags.writeable = test.flags.writeable = False
            self.wholes[key] = selection
        return selection


def _max_terms_cap(space: HyperparamSpace) -> int | None:
    """The largest ``max_terms`` the space decodes to; None if it has no bound."""
    for d in space.dims:
        if d.name == "max_terms" and d.kind != "categorical":
            return max(1, math.floor(d.hi))
    return None


# The most log likelihoods (configurations x classes x terms) one
# _nb_log_lik call stacks: 128 KiB of float64, whatever the vocabulary
_STACK_ELEMENTS = 1 << 14


def _fit_score(prep: _PreparedCorpus, keys: list) -> list[tuple[float, float]]:
    """Train on the train split and score on the test split, once per fit
    key (``_PreparedCorpus.fit_key``): the (accuracy, macro_f) of each, in
    order; (0, 0) for None, a degenerate configuration's key, with no kernel.

    The others are grouped by the columns they select, ``key[:2]``
    (``use_stemming`` and the term count), and each group is fitted and
    predicted (``_nb_log_lik``, ``_nb_codes``) on stacks of its smoothings,
    ``key[2]``, at most ``_STACK_ELEMENTS`` log likelihoods each, every
    slice with the bits of a fit on its own. Predictions stay class codes,
    and the whole call is scored in one pass: one ``np.bincount``, over each
    key's codes shifted by ``n_classes`` per key (a lone key needs no shift)
    and true positives shifted past every prediction, counts each key's
    predictions and true positives per class; accuracy and macro-F are the
    int/int divisions and ``repr``-ordered sums ``metrics.accuracy`` and
    ``metrics.f_score`` make from label lists, so every bit is theirs."""
    scores = [(0.0, 0.0)] * len(keys)
    groups = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key[:2], []).append(i)
    fitted, blocks = [], []
    for selection, members in groups.items():
        totals, X_test, row_totals = prep.columns(*selection)
        step = max(1, _STACK_ELEMENTS // totals.size)
        for start in range(0, len(members), step):
            part = members[start:start + step]
            log_lik = _nb_log_lik(totals, [keys[i][2] for i in part], row_totals)
            blocks.append(_nb_codes(X_test, prep.log_prior, log_lik))
            fitted += part
    if not fitted:
        return scores
    m, n_classes, n_test = len(fitted), len(prep.classes), len(prep.test_codes)
    codes = (blocks[0] if len(blocks) == 1 else np.concatenate(blocks)).reshape(m, n_test)
    # each configuration's codes shifted into a block of bins of its own
    shifted = codes + np.arange(0, m * n_classes, n_classes)[:, np.newaxis] if m > 1 else codes
    counts = np.bincount(np.concatenate((shifted.ravel(),
                                         shifted[codes == prep.test_codes] + m * n_classes)),
                         minlength=2 * m * n_classes)
    n_pred, tp = counts.reshape(2, m, n_classes).take(prep.repr_order, axis=2).tolist()
    for i, t, p in zip(fitted, tp, n_pred):
        scores[i] = sum(t) / n_test, macro_f1(t, p, prep.gold_counts)
    return scores


def classifier_objective(corpus: LabeledCorpus, space: HyperparamSpace):
    """Objective over the encoded real box: 1 - test macro-F of the tuned
    TF-IDF/naive-Bayes classifier. Degenerate regions score worst (1.0)
    instead of raising.

    ``objective.batch(X)`` scores the rows of ``X``; ``objective(x)`` is
    ``batch([x])[0]``, so there is one scoring path. Fitnesses are memoised
    by what a fit reads, the row's ``_PreparedCorpus.fit_key``: one entry
    for every degenerate configuration, so configurations that select the
    same columns with the same smoothing share one fit and one float. A
    batch keys every row once and hands the keys it misses, each once, to
    one ``_fit_score`` call. ``objective.fit_score(x)`` is the (accuracy,
    macro_f) of that fit."""
    prep = _PreparedCorpus(corpus, _max_terms_cap(space))
    memo = {}

    def batch(X) -> list[float]:
        keys = [prep.fit_key(space.decode(x)) for x in X]
        missed = [key for key in dict.fromkeys(keys) if key not in memo]
        if missed:
            for key, (_, macro_f) in zip(missed, _fit_score(prep, missed)):
                memo[key] = 1.0 - macro_f
        return [memo[key] for key in keys]

    def objective(x) -> float:
        return batch([x])[0]

    objective.batch = batch
    objective.fit_score = lambda x: _fit_score(prep, [prep.fit_key(space.decode(x))])[0]
    return objective


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def child_rng(master_seed: int, method_index: int, run_index: int) -> np.random.Generator:
    return make_rng(np.random.SeedSequence(master_seed, spawn_key=(method_index, run_index)))


def run_method(method: str, obj, space: SearchSpace, pop_size: int,
               iterations: int, rng) -> OptimizationResult:
    """Run one method of ``METHODS``, the one registry that ``opt run`` and
    ``opt bench`` dispatch through. The runner is looked up on its module at
    each call, so a wrapper installed on that module attribute sees the run."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    runner = run_hraha if method == "hraha" else getattr(baselines, f"run_{method}")
    return runner(obj, space, pop_size, iterations, rng)


def run_random_search(obj, space: SearchSpace, budget: int, rng) -> OptimizationResult:
    """Uniform random sampling at a fixed evaluation budget; a non-finite
    value counts as +inf, as it does for every method. The first sample is
    the best until a later one is strictly better, so the best point is in
    the box even when no evaluation is finite.

    Ask-and-tell: every sample is drawn in one ``uniform`` call, which gives
    the bytes and final state of one call per sample, then scored as one
    batch (one call per sample, in order, for an objective without
    ``batch``)."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = make_rng(rng)
    counted = CountingObjective(obj)
    X = rng.uniform(space.lower, space.upper, size=(budget, space.dims))
    # min keeps the earlier value on a tie, as the counter's best does
    history = list(itertools.accumulate(counted.batch(X), min))
    return OptimizationResult(counted.best_x.copy(), counted.best_f, history, counted.count)


@dataclass
class TrialReport:
    """One row per optimization method; identical metric columns per row."""

    columns: list[str]
    rows: dict[str, dict[str, float]]  # method -> column -> value
    seeds: list[int] = field(default_factory=list)
    wall_times: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"columns": self.columns, "rows": self.rows, "seeds": self.seeds}


class ConfigError(ValueError):
    """An experiment config field is missing or invalid; the message names it."""


@dataclass(frozen=True)
class BenchmarkTask:
    function: str
    dims: int


@dataclass(frozen=True)
class ClassifierTask:
    corpus: str
    format: str
    split_ratio: float
    split_seed: int
    space: HyperparamSpace


@dataclass(frozen=True)
class Experiment:
    """A checked experiment config, as ``parse_config`` returns it."""

    task: BenchmarkTask | ClassifierTask
    methods: tuple[str, ...]
    pop_size: int
    iterations: int
    seeds: tuple[int, ...]

    def with_master_seed(self, master_seed: int) -> Experiment:
        """The same experiment with as many seeds, counting up from ``master_seed``."""
        master = _check_int(master_seed, 0, "seeds.master_seed")
        return replace(self, seeds=tuple(range(master, master + len(self.seeds))))


def _check_int(value, minimum: int, name: str) -> int:
    # JSON integers only, so 2.7, true and "1" are refused rather than converted
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {value}")
    return value


def _check_number(value, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer too large for a float
            if math.isfinite(value):
                return float(value)
    raise ConfigError(f"{name}: expected a finite number, got {value!r}")


def _check_keys(section: dict, known: tuple[str, ...], prefix: str) -> None:
    # a misspelt key would otherwise leave its default in force
    for key in section:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown key; choose from {known}")


def _check_seeds(seeds) -> tuple[int, ...]:
    # seeds go to numpy's SeedSequence, which takes only non-negative integers
    if isinstance(seeds, list):
        if not seeds:
            raise ConfigError("seeds: empty list")
        return tuple(_check_int(seed, 0, f"seeds[{i}]") for i, seed in enumerate(seeds))
    if isinstance(seeds, dict):
        _check_keys(seeds, ("count", "master_seed"), "seeds.")
        count = _check_int(seeds.get("count", 1), 1, "seeds.count")
        master = _check_int(seeds.get("master_seed", 0), 0, "seeds.master_seed")
        return tuple(range(master, master + count))
    raise ConfigError(f"seeds: expected a list or an object, got {seeds!r}")


def parse_config(config) -> Experiment:
    """The Experiment a config dict describes, defaults applied; the only reader
    of a config dict. Raises ConfigError naming the first field that cannot be
    used. ``opt bench`` checks its arguments here too."""
    if not isinstance(config, dict):
        raise ConfigError(f"config: expected an object, got {type(config).__name__}")
    task = config.get("task")
    if not isinstance(task, dict):
        raise ConfigError("task: missing or not an object")
    kind = task.get("kind", "benchmark")
    if kind == "benchmark":
        _check_keys(task, ("kind", "function", "dims"), "task.")
        function = task.get("function")
        if not isinstance(function, str) or function not in BENCHMARKS:
            raise ConfigError(f"task.function: unknown benchmark {function!r}; "
                              f"choose from {sorted(BENCHMARKS)}")
        dims = _check_int(task.get("dims", 10), 1, "task.dims")
        if function == "rosenbrock" and dims < 2:  # its sum over adjacent pairs would be empty
            raise ConfigError(f"task.dims: rosenbrock needs at least 2 dimensions, got {dims}")
        parsed = BenchmarkTask(function, dims)
    elif kind == "classifier":
        _check_keys(task, ("kind", "corpus", "format", "split_ratio", "split_seed"), "task.")
        corpus = task.get("corpus")
        if not isinstance(corpus, str):
            raise ConfigError(f"task.corpus: expected a file path, got {corpus!r}")
        fmt = task.get("format", "csv")
        if fmt not in ("csv", "jsonl"):
            raise ConfigError(f"task.format: unknown format {fmt!r}; choose from ('csv', 'jsonl')")
        ratio = _check_number(task.get("split_ratio", 0.8), "task.split_ratio")
        if not 0 < ratio < 1:
            raise ConfigError(f"task.split_ratio: must be in (0, 1), got {ratio}")
        parsed = ClassifierTask(corpus, fmt, ratio,
                                _check_int(task.get("split_seed", 0), 0, "task.split_seed"),
                                _space_from_config(config.get("space")))
    else:
        raise ConfigError(f"task.kind: unknown task kind {kind!r}; "
                          f"choose from ('benchmark', 'classifier')")
    _check_keys(config, ("task", "methods", "budget", "seeds")
                + (("space",) if kind == "classifier" else ()), "")
    methods = config.get("methods", list(METHODS))
    if not isinstance(methods, list) or not methods:
        raise ConfigError(f"methods: expected a non-empty list, got {methods!r}")
    names = []
    for m in methods:
        name = str(m).lower()
        if name not in METHODS:
            raise ConfigError(f"methods: unknown method {m!r}; choose from {METHODS}")
        if name in names:
            raise ConfigError(f"methods: {m!r} listed twice")
        names.append(name)
    budget = config.get("budget", {})
    if not isinstance(budget, dict):
        raise ConfigError("budget: not an object")
    _check_keys(budget, ("pop_size", "iterations"), "budget.")
    # every method starts from init_population, which needs four members
    return Experiment(parsed, tuple(names),
                      _check_int(budget.get("pop_size", 20), 4, "budget.pop_size"),
                      _check_int(budget.get("iterations", 50), 1, "budget.iterations"),
                      _check_seeds(config.get("seeds", {})))


def run_experiment(exp: Experiment) -> TrialReport:
    """Race the experiment's methods on a benchmark or classifier-tuning task.

    Reported per method: median best fitness across runs, plus test accuracy
    and macro-F of the best-found configuration for classifier tasks. Each
    method gets its own classifier objective, so no method is timed on
    another's cached evaluations.
    """
    task = exp.task
    classifier = isinstance(task, ClassifierTask)
    if classifier:
        corpus = load_corpus(task.corpus, task.format, task.split_ratio, task.split_seed)
        space = task.space.to_box()
    else:
        bench = get_benchmark(task.function)
        space = bench.space(task.dims)

    columns = ["best_fitness"]
    if classifier:
        columns += ["accuracy", "f_score"]
    rows: dict[str, dict[str, float]] = {}
    wall_times: dict[str, float] = {}
    for mi, method in enumerate(exp.methods):
        obj = classifier_objective(corpus, task.space) if classifier else bench
        t0 = time.perf_counter()
        results = [run_method(method, obj, space, exp.pop_size, exp.iterations,
                              child_rng(seed, mi, ri))
                   for ri, seed in enumerate(exp.seeds)]
        wall_times[method] = time.perf_counter() - t0
        fits = [r.best_fitness for r in results]
        row = {"best_fitness": float(statistics.median(fits))}
        if classifier:
            best = min(results, key=lambda r: r.best_fitness)
            acc, mf = obj.fit_score(best.best_position)
            row["accuracy"] = acc
            row["f_score"] = mf
        rows[method] = row
    return TrialReport(columns, rows, list(exp.seeds), wall_times)


def _space_from_config(space_cfg) -> HyperparamSpace:
    """The classifier's hyperparameter space from a config's ``space`` list
    (the default space when absent); ConfigError names the first bad field.
    Every tunable the objective reads must appear exactly once, and the
    squared widths must sum to a finite float, as ``init_population`` needs."""
    if space_cfg is None:
        return default_tuning_space()
    if not isinstance(space_cfg, list):
        raise ConfigError(f"space: expected a list of dimensions, got {space_cfg!r}")
    tunables = tuple(d.name for d in default_tuning_space().dims)
    dims = []
    for i, d in enumerate(space_cfg):
        at = f"space[{i}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{at}: expected an object, got {d!r}")
        name = d.get("name")
        if name not in tunables:
            raise ConfigError(f"{at}.name: unknown tunable {name!r}; choose from {tunables}")
        if any(prev.name == name for prev in dims):
            raise ConfigError(f"{at}.name: {name!r} listed twice")
        kind = d.get("kind")
        if kind == "categorical":
            _check_keys(d, ("name", "kind", "choices"), f"{at}.")
            choices = d.get("choices")
            if not isinstance(choices, list) or not choices:
                raise ConfigError(f"{at}.choices: expected a non-empty list, got {choices!r}")
            for c in choices:  # values the objective can read and use as cache keys
                if not (name == "use_stemming" and isinstance(c, bool)):
                    _check_number(c, f"{at}.choices")
            dims.append(HyperparamDim(name, kind, choices=tuple(choices)))
        elif kind in ("continuous", "integer"):
            _check_keys(d, ("name", "kind", "lo", "hi"), f"{at}.")
            lo = _check_number(d.get("lo"), f"{at}.lo")
            hi = _check_number(d.get("hi"), f"{at}.hi")
            if not lo < hi:
                raise ConfigError(f"{at}.lo: must be below hi, got lo={lo}, hi={hi}")
            if not math.isfinite(hi - lo):
                raise ConfigError(f"{at}.hi: width hi - lo must be finite, got lo={lo}, hi={hi}")
            if kind == "integer" and math.ceil(lo) > hi:
                raise ConfigError(f"{at}.hi: an integer dimension needs an integer in "
                                  f"[lo, hi], got lo={lo}, hi={hi}")
            dims.append(HyperparamDim(name, kind, lo, hi))
        else:
            raise ConfigError(f"{at}.kind: unknown kind {kind!r}; "
                              f"choose from ('continuous', 'integer', 'categorical')")
    missing = [t for t in tunables if all(d.name != t for d in dims)]
    if missing:
        raise ConfigError(f"space: missing {', '.join(missing)}")
    j = _width_overflow(*zip(*(d.box_bounds() for d in dims)))
    if j is not None:  # the box no runner could search
        raise ConfigError(f"space[{j}].hi: the squared widths (hi - lo)**2 sum past "
                          f"the largest float here")
    return HyperparamSpace(tuple(dims))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit_report(report: TrialReport, fmt: str = "csv") -> str:
    """Render a report. Column order is method first, then metrics
    alphabetically; the text table rounds to 4 decimals. Wall times are left
    out because they are not reproducible; ``opt run`` writes them to
    ``timings.json``."""
    if not report.rows:
        raise ValueError("empty report")
    cols = sorted(report.columns)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(["method"] + cols)
        for method in report.rows:
            writer.writerow([method] + [repr(report.rows[method][c]) for c in cols])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "text-table":
        header = ["method"] + cols
        body = [[m] + [f"{report.rows[m][c]:.4f}" for c in cols] for m in report.rows]
        widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
