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
import functools
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
    """The whole text of a UTF-8 file, newlines untranslated; a file that
    cannot be read or decoded is a DataError naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e}") from None
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None


def _parse_rows(path, fmt: str):
    rows = []
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
        missing = {"id", "text", "label"} - set(reader.fieldnames or [])
        if missing:
            raise DataError(f"missing column(s): {', '.join(sorted(missing))}")
        for lineno, row in enumerate(reader, start=2):
            if row.get("id") is None or row.get("text") is None or row.get("label") is None:
                raise DataError(f"malformed row at line {lineno}")
            rows.append((row["id"], row["text"], row["label"]))
    elif fmt == "jsonl":
        # newline=None splits lines as a file opened in text mode does
        for lineno, line in enumerate(io.StringIO(_read_text(path), newline=None), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as e:  # malformed JSON, or an integer past int's digit limit
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

    def box_bounds(self) -> tuple[float, float]:
        if self.kind == "categorical":
            return 0.0, float(len(self.choices))
        return float(self.lo), float(self.hi)

    def encode(self, value) -> float:
        if self.kind == "categorical":
            return self.choices.index(value) + 0.5
        return float(value)

    def decode(self, x: float):
        if self.kind == "continuous":
            return float(min(max(x, self.lo), self.hi))
        if self.kind == "integer":
            v = math.floor(x + 0.5)  # round half up
            return int(min(max(v, self.lo), self.hi))
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


def _nb_log_lik(totals: np.ndarray, smoothing: float) -> np.ndarray:
    """Naive-Bayes log likelihoods from C-ordered per-class feature totals.
    The normalisers use ``math.log``, which can differ from ``np.log`` in the
    last bit."""
    n_feat = totals.shape[1]
    log_lik = np.log(totals + smoothing)
    log_lik -= np.array([math.log(t + smoothing * n_feat)
                         for t in totals.sum(axis=1).tolist()]).reshape(-1, 1)
    return log_lik


def train_nb(X: np.ndarray, labels: list, classes: list, smoothing: float):
    """Multinomial naive Bayes on non-negative feature rows."""
    codes = _codes(labels, classes)
    sizes = np.bincount(codes[codes >= 0], minlength=len(classes))
    return (_log_prior(sizes, X.shape[0]),
            _nb_log_lik(_class_totals(X, codes, len(classes)), smoothing))


def _nb_codes(X: np.ndarray, log_prior, log_lik) -> np.ndarray:
    """The class code (row index of ``log_lik``) of each row's highest
    naive-Bayes score; ties go to the lowest code."""
    return np.argmax(X @ log_lik.T + log_prior, axis=1)


def predict_nb(X: np.ndarray, classes: list, log_prior, log_lik) -> list:
    return [classes[i] for i in _nb_codes(X, log_prior, log_lik).tolist()]


class _PreparedCorpus:
    """Everything an evaluation needs that its hyperparameters do not change.

    Per stemming variant this holds, over the ``max_terms_cap`` most
    document-frequent training terms (ties lexicographic), columns in
    lexicographic order and weighted by IDF (which depends on the column
    alone): the training matrix and its per-class totals, the transposed
    test matrix, the training document frequencies (the nonzero counts of
    each column of the training count matrix) and the column order by
    (-df, term). The terms with df >= ``min_doc_freq`` are a prefix of that
    order, so an evaluation only selects columns: the same values, summed in
    the same order, as building its own vocabulary and matrices would give.

    The train and test labels are held as class codes (indices into
    ``classes``), with the classes' ``repr`` order, in which
    ``metrics.f_score`` sums them, and the gold count of each class in that
    order.

    ``prefixes`` memoises, per (use_stemming, min_doc_freq), the number of
    terms with df >= min_doc_freq and the selection of that whole prefix,
    which no other hyperparameter changes. It holds at most one entry per
    stemming variant and ``min_doc_freq`` the objective is called with (10
    in the default space); only a ``min_doc_freq`` at or below the largest
    df holds arrays, copies no wider than the prepared vocabulary, or, for
    a prefix of every term, read-only views of the prepared arrays. It lives
    and dies with its instance."""

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
            self.variants[stemmed] = (train, _class_totals(train, self.train_codes, n_classes),
                                      test_t, df, order)
        self.log_prior = _log_prior(np.bincount(self.train_codes, minlength=n_classes), n_train)
        self.prefixes = {}

    def select(self, use_stemming: bool, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
        """The per-class totals and the test matrix of the ``n_terms`` >= 1
        most document-frequent columns, in lexicographic order."""
        train, totals, test_t, df, order = self.variants[use_stemming]
        if 1 < n_terms == len(order):  # every column: the prepared arrays, uncopied
            return totals, test_t.T
        cols = np.sort(order[:n_terms])
        if n_terms == 1:  # summed pairwise, see _class_totals
            totals = _class_totals(np.take(train, cols, axis=1), self.train_codes,
                                   len(self.classes))
        else:
            totals = np.take(totals, cols, axis=1)
        # F-ordered, as test[:, cols] is: a matrix product may round by layout
        return totals, np.take(test_t, cols, axis=0).T

    def prefix(self, use_stemming: bool, min_doc_freq: int):
        """The number of terms with df >= ``min_doc_freq`` and, if above 0,
        their read-only ``select``ion; memoised per (use_stemming,
        min_doc_freq)."""
        key = (use_stemming, min_doc_freq)
        if key not in self.prefixes:
            count = int(np.count_nonzero(self.variants[use_stemming][3] >= min_doc_freq))
            selection = self.select(use_stemming, count) if count else None
            for a in selection or ():
                a.flags.writeable = False
            self.prefixes[key] = count, selection
        return self.prefixes[key]


def _max_terms_cap(space: HyperparamSpace) -> int | None:
    """The largest ``max_terms`` the space decodes to; None if it has no bound."""
    for d in space.dims:
        if d.name == "max_terms" and d.kind != "categorical":
            return max(1, math.floor(d.hi))
    return None


def _fit_score(prep: _PreparedCorpus, params: dict) -> tuple[float, float]:
    """Train on the train split, score on the test split.

    Returns (accuracy, macro_f); (0, 0) for degenerate hyperparameters,
    such as an ``nb_smoothing`` <= 0, whose log likelihoods would not be finite.
    The selected columns come from ``prep.prefix``'s memo whenever
    ``max_terms`` does not cut the (use_stemming, min_doc_freq) prefix, and
    from ``prep.select`` otherwise: the same arrays either way, so only the
    NB fit and the scoring run on every call.
    Predictions stay class codes: ``np.bincount`` counts the predictions and
    true positives per class, and accuracy and macro-F are the int/int
    divisions and ``repr``-ordered sums ``metrics.accuracy`` and
    ``metrics.f_score`` make from label lists, so every bit is theirs."""
    min_doc_freq = int(params["min_doc_freq"])
    max_terms = int(params["max_terms"])
    smoothing = float(params["nb_smoothing"])
    if min_doc_freq < 1 or max_terms < 1 or smoothing <= 0:
        return 0.0, 0.0
    use_stemming = bool(params["use_stemming"])
    count, selection = prep.prefix(use_stemming, min_doc_freq)
    if count == 0:
        return 0.0, 0.0
    totals, X_test = selection if max_terms >= count else prep.select(use_stemming, max_terms)
    codes = _nb_codes(X_test, prep.log_prior, _nb_log_lik(totals, smoothing))
    n_classes = len(prep.classes)
    tp = np.bincount(codes[codes == prep.test_codes], minlength=n_classes)[prep.repr_order]
    n_pred = np.bincount(codes, minlength=n_classes)[prep.repr_order]
    return (int(tp.sum()) / len(codes),
            macro_f1(tp.tolist(), n_pred.tolist(), prep.gold_counts))


def classifier_objective(corpus: LabeledCorpus, space: HyperparamSpace):
    """Objective over the encoded real box: 1 - test macro-F of the tuned
    TF-IDF/naive-Bayes classifier. Degenerate regions score worst (1.0)
    instead of raising."""
    prep = _PreparedCorpus(corpus, _max_terms_cap(space))

    @functools.cache
    def fitness(params: tuple) -> float:
        return 1.0 - _fit_score(prep, dict(params))[1]

    def objective(x) -> float:
        return fitness(tuple(space.decode(x).items()))

    objective.fit_score = lambda x: _fit_score(prep, space.decode(x))
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
        parsed = BenchmarkTask(function, _check_int(task.get("dims", 10), 1, "task.dims"))
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
