"""Experiment harness: corpus ingestion, hyperparameter spaces, the
naive-Bayes/TF-IDF tuning objective, optimizer races, and report emission.

Reproducibility: a master seed derives per-(method, run) child generators
via ``numpy.random.SeedSequence(master_seed, spawn_key=(method_index,
run_index))``, so every number in a report is a pure function of the config
and the master seed. Wall times are kept out of the deterministic report
files and written to a separate timings sidecar.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, textpipe
from .benchmarks import BENCHMARKS, get_benchmark
from .core import CountingObjective, SearchSpace, make_rng
from .hraha import OptimizationResult
from .hraha import run as run_hraha
from .metrics import accuracy as accuracy_metric
from .metrics import f_score as f_score_metric

__all__ = [
    "LabeledCorpus",
    "HyperparamDim",
    "HyperparamSpace",
    "TrialReport",
    "DataError",
    "ConfigError",
    "check_config",
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


def _parse_rows(path, fmt: str):
    rows = []
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"id", "text", "label"} <= set(reader.fieldnames):
                missing = {"id", "text", "label"} - set(reader.fieldnames or [])
                raise DataError(f"missing column(s): {', '.join(sorted(missing))}")
            for lineno, row in enumerate(reader, start=2):
                if row.get("id") is None or row.get("text") is None or row.get("label") is None:
                    raise DataError(f"malformed row at line {lineno}")
                rows.append((row["id"], row["text"], row["label"]))
    elif fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DataError(f"malformed row at line {lineno}: {e}") from None
                if not {"id", "text", "label"} <= set(obj):
                    missing = {"id", "text", "label"} - set(obj)
                    raise DataError(f"missing column(s) at line {lineno}: {', '.join(sorted(missing))}")
                rows.append((str(obj["id"]), str(obj["text"]), str(obj["label"])))
    else:
        raise DataError(f"unknown corpus format {fmt!r} (expected csv or jsonl)")
    return rows


def load_corpus(path, fmt: str = "csv", split_ratio: float = 0.8, seed: int = 0) -> LabeledCorpus:
    """Parse a labeled corpus and make a deterministic stratified split.

    Every label is guaranteed at least one training document."""
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
        idx = np.array(by_label[lab])
        perm = rng.permutation(len(idx))
        n_train = max(1, round(split_ratio * len(idx)))
        n_train = min(n_train, len(idx))
        shuffled = idx[perm]
        train_idx.extend(int(i) for i in shuffled[:n_train])
        test_idx.extend(int(i) for i in shuffled[n_train:])
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

def train_nb(X: np.ndarray, labels: list, classes: list, smoothing: float):
    """Multinomial naive Bayes on non-negative feature rows."""
    n_feat = X.shape[1]
    log_prior = np.empty(len(classes))
    log_lik = np.empty((len(classes), n_feat))
    labels = np.asarray(labels)
    for k, c in enumerate(classes):
        rows = X[labels == c]
        log_prior[k] = math.log(max(len(rows), 1) / X.shape[0])
        totals = rows.sum(axis=0)
        log_lik[k] = np.log(totals + smoothing) - math.log(totals.sum() + smoothing * n_feat)
    return log_prior, log_lik


def predict_nb(X: np.ndarray, classes: list, log_prior, log_lik) -> list:
    scores = X @ log_lik.T + log_prior
    return [classes[i] for i in np.argmax(scores, axis=1)]


class _PreparedCorpus:
    """Everything an evaluation needs that its hyperparameters do not change.

    Per stemming variant this holds the train and test count matrices and the
    training document frequencies over the ``max_terms_cap`` most
    document-frequent training terms (ties lexicographic), columns in
    lexicographic order, plus the column order by (-df, term). The terms with
    df >= ``min_doc_freq`` are a prefix of that order, so an evaluation only
    selects columns: the same values in the same order as building its own
    vocabulary and matrices would give."""

    def __init__(self, corpus: LabeledCorpus, max_terms_cap: int | None):
        plain = [textpipe.preprocess(t, use_stemming=False) for t in corpus.texts]
        self.classes = corpus.label_set
        self.train_labels = [corpus.labels[i] for i in corpus.train_idx]
        self.test_labels = [corpus.labels[i] for i in corpus.test_idx]
        self.counts = {}
        for stemmed in (False, True):
            tokens = [textpipe.stem_tokens(t) for t in plain] if stemmed else plain
            train_tokens = [tokens[i] for i in corpus.train_idx]
            test_tokens = [tokens[i] for i in corpus.test_idx]
            vocab = textpipe.build_vocabulary(train_tokens, 1, max_terms_cap)
            df = textpipe.doc_frequencies(train_tokens, vocab)
            order = np.lexsort((np.arange(len(vocab)), -df))
            self.counts[stemmed] = (textpipe.bow_vectorize(train_tokens, vocab).values,
                                    textpipe.bow_vectorize(test_tokens, vocab).values,
                                    df, order)


def _max_terms_cap(space: HyperparamSpace) -> int | None:
    """The largest ``max_terms`` the space decodes to; None if it has no bound."""
    for d in space.dims:
        if d.name == "max_terms" and d.kind != "categorical":
            return max(1, math.floor(d.hi))
    return None


def _fit_score(prep: _PreparedCorpus, params: dict) -> tuple[float, float]:
    """Train on the train split, score on the test split.

    Returns (accuracy, macro_f); (0, 0) for degenerate hyperparameters."""
    min_doc_freq = int(params["min_doc_freq"])
    max_terms = int(params["max_terms"])
    if min_doc_freq < 1 or max_terms < 1:
        return 0.0, 0.0
    train, test, df, order = prep.counts[bool(params["use_stemming"])]
    n_terms = min(int(np.count_nonzero(df >= min_doc_freq)), max_terms)
    if n_terms == 0:
        return 0.0, 0.0
    cols = np.sort(order[:n_terms])
    idf = np.log(train.shape[0] / np.maximum(df[cols], 1))
    X_train = train[:, cols] * idf
    X_test = test[:, cols] * idf
    log_prior, log_lik = train_nb(X_train, prep.train_labels, prep.classes,
                                  float(params["nb_smoothing"]))
    pred = predict_nb(X_test, prep.classes, log_prior, log_lik)
    return accuracy_metric(pred, prep.test_labels), f_score_metric(pred, prep.test_labels)


def classifier_objective(corpus: LabeledCorpus, space: HyperparamSpace):
    """Objective over the encoded real box: 1 - test macro-F of the tuned
    TF-IDF/naive-Bayes classifier. Degenerate regions score worst (1.0)
    instead of raising."""
    prep = _PreparedCorpus(corpus, _max_terms_cap(space))
    cache: dict[tuple, float] = {}

    def objective(x) -> float:
        params = space.decode(x)
        key = tuple(sorted(params.items()))
        hit = cache.get(key)
        if hit is not None:
            return hit
        _, macro_f = _fit_score(prep, params)
        fitness = 1.0 - macro_f
        cache[key] = fitness
        return fitness

    objective.fit_score = lambda x: _fit_score(prep, space.decode(x))
    return objective


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def child_rng(master_seed: int, method_index: int, run_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(master_seed, spawn_key=(method_index, run_index))
    return np.random.Generator(np.random.PCG64(ss))


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
    the box even when no evaluation is finite."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = make_rng(rng)
    counted = CountingObjective(obj)
    best_x, best_f = None, math.inf
    history = []
    for _ in range(budget):
        x = rng.uniform(space.lower, space.upper)
        f = counted(x)
        if best_x is None or f < best_f:
            best_f, best_x = f, x
        history.append(best_f)
    return OptimizationResult(best_x, best_f, history, counted.count, {})


@dataclass
class TrialReport:
    """One row per optimization method; identical metric columns per row."""

    columns: list[str]
    rows: dict[str, dict[str, float]]  # method -> column -> value
    seeds: list[int] = field(default_factory=list)
    wall_times: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"columns": self.columns, "rows": self.rows, "seeds": self.seeds}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrialReport":
        return cls(list(d["columns"]), {m: dict(v) for m, v in d["rows"].items()},
                   list(d.get("seeds", [])))


def _experiment_seeds(config: dict) -> list[int]:
    seeds = config.get("seeds", {})
    if isinstance(seeds, list):
        return [int(s) for s in seeds]
    count = int(seeds.get("count", 1))
    master = int(seeds.get("master_seed", 0))
    return [master + i for i in range(count)]


class ConfigError(ValueError):
    """An experiment config field is missing or invalid; the message names it."""


def _check_int(value, minimum: int, name: str) -> None:
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected an integer, got {value!r}") from None
    if n < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {n}")


def _check_seeds(seeds) -> None:
    # seeds go to numpy's SeedSequence, which takes only non-negative integers
    if isinstance(seeds, list):
        if not seeds:
            raise ConfigError("seeds: empty list")
        for i, seed in enumerate(seeds):
            _check_int(seed, 0, f"seeds[{i}]")
    elif isinstance(seeds, dict):
        _check_int(seeds.get("count", 1), 1, "seeds.count")
        _check_int(seeds.get("master_seed", 0), 0, "seeds.master_seed")
    else:
        raise ConfigError(f"seeds: expected a list or an object, got {seeds!r}")


def check_config(config: dict) -> None:
    """Raise ConfigError naming the first field run_experiment cannot use.

    ``opt bench`` checks its arguments here too, so the minimums live in one
    place."""
    task = config.get("task")
    if not isinstance(task, dict):
        raise ConfigError("task: missing or not an object")
    kind = task.get("kind", "benchmark")
    if kind == "benchmark":
        if task.get("function") not in BENCHMARKS:
            raise ConfigError(f"task.function: unknown benchmark {task.get('function')!r}; "
                              f"choose from {sorted(BENCHMARKS)}")
        _check_int(task.get("dims", 10), 1, "task.dims")
    elif kind == "classifier":
        if "corpus" not in task:
            raise ConfigError("task.corpus: missing")
        _space_from_config(config.get("space"))
    else:
        raise ConfigError(f"task.kind: unknown task kind {kind!r}; "
                          f"choose from ('benchmark', 'classifier')")
    methods = config.get("methods", list(METHODS))
    if not isinstance(methods, list) or not methods:
        raise ConfigError(f"methods: expected a non-empty list, got {methods!r}")
    seen = set()
    for m in methods:
        name = str(m).lower()
        if name not in METHODS:
            raise ConfigError(f"methods: unknown method {m!r}; choose from {METHODS}")
        if name in seen:
            raise ConfigError(f"methods: {m!r} listed twice")
        seen.add(name)
    budget = config.get("budget", {})
    if not isinstance(budget, dict):
        raise ConfigError("budget: not an object")
    # every method starts from init_population, which needs four members
    _check_int(budget.get("pop_size", 20), 4, "budget.pop_size")
    _check_int(budget.get("iterations", 50), 1, "budget.iterations")
    _check_seeds(config.get("seeds", {}))


def run_experiment(config: dict) -> TrialReport:
    """Race the configured methods on a benchmark or classifier-tuning task.

    Config sections: task, space (classifier only), methods, budget, seeds.
    Reported per method: median best fitness across runs, plus test accuracy
    and macro-F of the best-found configuration for classifier tasks. Each
    method gets its own classifier objective, so no method is timed on
    another's cached evaluations. Raises ConfigError for an unusable config.
    """
    check_config(config)
    task = config["task"]
    methods = [m.lower() for m in config.get("methods", list(METHODS))]
    budget = config.get("budget", {})
    pop_size = int(budget.get("pop_size", 20))
    iterations = int(budget.get("iterations", 50))
    seeds = _experiment_seeds(config)

    classifier = task.get("kind", "benchmark") == "classifier"
    if classifier:
        corpus = load_corpus(task["corpus"], task.get("format", "csv"),
                             float(task.get("split_ratio", 0.8)),
                             int(task.get("split_seed", 0)))
        hspace = _space_from_config(config.get("space"))
        space = hspace.to_box()
    else:
        bench = get_benchmark(task["function"])
        space = bench.space(int(task.get("dims", 10)))

    columns = ["best_fitness"]
    if classifier:
        columns += ["accuracy", "f_score"]
    rows: dict[str, dict[str, float]] = {}
    wall_times: dict[str, float] = {}
    for mi, method in enumerate(methods):
        obj = classifier_objective(corpus, hspace) if classifier else bench
        t0 = time.perf_counter()
        results = [run_method(method, obj, space, pop_size, iterations,
                              child_rng(seeds[ri], mi, ri))
                   for ri in range(len(seeds))]
        wall_times[method] = time.perf_counter() - t0
        fits = [r.best_fitness for r in results]
        row = {"best_fitness": float(statistics.median(fits))}
        if classifier:
            best = min(results, key=lambda r: r.best_fitness)
            acc, mf = obj.fit_score(best.best_position)
            row["accuracy"] = acc
            row["f_score"] = mf
        rows[method] = row
    return TrialReport(columns, rows, seeds, wall_times)


def _check_bound(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name}: must be finite, got {x}")
    return x


def _space_from_config(space_cfg) -> HyperparamSpace:
    """The classifier's hyperparameter space from a config's ``space`` list
    (the default space when absent); ConfigError names the first bad field.
    Every tunable the objective reads must appear exactly once."""
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
            choices = d.get("choices")
            if not isinstance(choices, list) or not choices:
                raise ConfigError(f"{at}.choices: expected a non-empty list, got {choices!r}")
            dims.append(HyperparamDim(name, kind, choices=tuple(choices)))
        elif kind in ("continuous", "integer"):
            lo = _check_bound(d.get("lo"), f"{at}.lo")
            hi = _check_bound(d.get("hi"), f"{at}.hi")
            if not lo < hi:
                raise ConfigError(f"{at}.lo: must be below hi, got lo={lo}, hi={hi}")
            dims.append(HyperparamDim(name, kind, lo, hi))
        else:
            raise ConfigError(f"{at}.kind: unknown kind {kind!r}; "
                              f"choose from ('continuous', 'integer', 'categorical')")
    missing = [t for t in tunables if all(d.name != t for d in dims)]
    if missing:
        raise ConfigError(f"space: missing {', '.join(missing)}")
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
