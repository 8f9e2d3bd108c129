import csv
import functools
import gc
import hashlib
import inspect
import itertools
import json
import math
import warnings
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foxbird import harness, textpipe
from foxbird.core import SearchSpace, make_rng
from foxbird.harness import (
    METHODS,
    BenchmarkTask,
    ClassifierTask,
    Experiment,
    DataError,
    HyperparamDim,
    HyperparamSpace,
    TrialReport,
    child_rng,
    classifier_objective,
    default_tuning_space,
    emit_report,
    load_corpus,
    parse_config,
    predict_nb,
    run_experiment,
    run_method,
    run_random_search,
    train_nb,
)
from foxbird.metrics import accuracy, f_score, macro_f1

from test_metrics import f_score_reference
from test_textpipe import doc_frequencies_reference


def train_nb_reference(X, labels, classes, smoothing):
    """Naive Bayes with a boolean row mask per class, each class summed on
    its own: the fit that train_nb and the tuning objective must reproduce
    bit for bit."""
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


def predict_nb_reference(X, classes, log_prior, log_lik):
    """The class at each row's argmax of ``X @ log_lik.T + log_prior``, ties
    to the first class: a frozen copy of the prediction ``predict_nb`` and
    the tuning objective make."""
    return [classes[i] for i in np.argmax(X @ log_lik.T + log_prior, axis=1).tolist()]


def nb_cases(seed: int, n: int, n_feats=(1, 2, 3, 8, 9, 40, 300)):
    """Random non-negative count-like matrices, C- and F-ordered, with a
    label outside ``classes`` and classes of 0, 1 or more rows.

    One-column cases matter: numpy sums a lone column pairwise, but each
    column of several row by row."""
    rng = make_rng(seed)
    yield np.arange(12.0).reshape(4, 3), ["b", "a", "x", "b"], ["a", "b", "c"]
    for case in range(n):
        n_rows = int(rng.integers(1, 120))
        n_feat = int(rng.choice(n_feats))
        classes = [f"c{k}" for k in range(int(rng.integers(1, 7)))]
        labels = [f"c{k}" for k in rng.integers(0, len(classes) + 1, n_rows)]
        X = rng.exponential(1.0, (n_rows, n_feat)) * rng.integers(0, 3, (n_rows, n_feat))
        yield (np.asfortranarray(X) if case % 2 else X), labels, classes


def frozen_nb_score(prep, totals, X_test, smoothing):
    """The per-point naive-Bayes fit and score the tuning objective ran
    before it stacked configurations (``_nb_log_lik``, ``_nb_codes`` and the
    scoring of ``_fit_score``), frozen: (accuracy, macro_f), the log
    likelihoods and the predicted codes."""
    n_feat = totals.shape[1]
    log_lik = np.log(totals + smoothing)
    log_lik -= np.array([math.log(t + smoothing * n_feat)
                         for t in totals.sum(axis=1).tolist()]).reshape(-1, 1)
    codes = np.argmax(X_test @ log_lik.T + prep.log_prior, axis=1)
    n_classes = len(prep.classes)
    tp = np.bincount(codes[codes == prep.test_codes], minlength=n_classes)[prep.repr_order]
    n_pred = np.bincount(codes, minlength=n_classes)[prep.repr_order]
    scores = (int(tp.sum()) / len(codes), macro_f1(tp.tolist(), n_pred.tolist(), prep.gold_counts))
    return scores, log_lik, codes


@functools.cache
def prepared(path):
    """The tuning objective's preparation of a corpus file, space cap 2000."""
    return harness._PreparedCorpus(load_corpus(path), 2000)


def class_sums(X, labels, classes):
    """Per-class column totals as the mask reference sums them."""
    labels = np.asarray(labels)
    return np.array([X[labels == c].sum(axis=0) for c in classes]).reshape(len(classes), -1)


def layout(a):
    return [stride for stride, n in zip(a.strides, a.shape) if n > 1]


def assert_same_bits(got, want):
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.fixture(scope="module")
def graded_corpus_csv(tmp_path_factory):
    """Three classes over made-up words whose document frequencies run from
    1 to most documents; suffixed forms make stemming merge terms."""
    rng = np.random.Generator(np.random.PCG64(5))
    consonants, vowels = "bdfgklmnprstv", "aeiou"
    stems = sorted({"".join(rng.choice(list(consonants)) + rng.choice(list(vowels))
                            for _ in range(3)) for _ in range(120)})
    words = [s + suffix for s in stems for suffix in ("", "s", "ing")]
    weights = 1.0 / np.arange(1, len(words) + 1)
    weights /= weights.sum()
    path = tmp_path_factory.mktemp("graded") / "graded.csv"
    lines = ["id,text,label"]
    for i in range(90):
        label = "abc"[i % 3]
        own = words[(i % 3)::3][:40]
        n = int(rng.integers(6, 14))
        text = [words[j] for j in rng.choice(len(words), size=n, p=weights)]
        text += [own[j] for j in rng.integers(0, len(own), size=n // 2)]
        lines.append(f"d{i},{' '.join(text)},{label}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def lopsided_corpus_csv(tmp_path_factory):
    """Classes of 40, 20 and 12 documents whose most frequent term, alpha,
    is missing from every seventh document, so a one-term fit sums classes
    of unequal size over a non-zero IDF."""
    rng = np.random.Generator(np.random.PCG64(8))
    lines = ["id,text,label"]
    for i in range(72):
        label = "a" if i < 40 else "b" if i < 60 else "c"
        words = ["alpha"] * int(rng.integers(1, 8)) if i % 7 else []
        words += [f"w{int(j)}" for j in rng.integers(0, 30, 4)]
        lines.append(f"d{i},{' '.join(words)},{label}")
    path = tmp_path_factory.mktemp("lopsided") / "lopsided.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------

class TestLoadCorpus:
    def test_csv_round_trip(self, corpus_csv):
        corpus = load_corpus(corpus_csv)
        assert len(corpus.ids) == 200
        assert corpus.label_set == ["neg", "pos"]
        assert sorted(corpus.train_idx + corpus.test_idx) == list(range(200))

    def test_split_is_stratified(self, corpus_csv):
        corpus = load_corpus(corpus_csv, split_ratio=0.8)
        train_labels = [corpus.labels[i] for i in corpus.train_idx]
        assert train_labels.count("pos") == 80
        assert train_labels.count("neg") == 80

    def test_split_deterministic(self, corpus_csv):
        a = load_corpus(corpus_csv, seed=3)
        b = load_corpus(corpus_csv, seed=3)
        c = load_corpus(corpus_csv, seed=4)
        assert a.train_idx == b.train_idx
        assert a.train_idx != c.train_idx

    def test_every_label_in_train(self, tmp_path):
        path = tmp_path / "lop.csv"
        lines = ["id,text,label"]
        lines += [f"d{i},common words here,a" for i in range(11)]
        lines.append("d99,lonely document text,b")
        path.write_text("\n".join(lines) + "\n")
        corpus = load_corpus(path, split_ratio=0.5)
        assert "b" in {corpus.labels[i] for i in corpus.train_idx}

    def test_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"id": f"d{i}", "text": f"text {i}", "label": "ab"[i % 2]}
                for i in range(12)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_corpus(path, fmt="jsonl")
        assert len(corpus.ids) == 12

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,text\n" + "\n".join(f"d{i},t" for i in range(12)))
        with pytest.raises(DataError, match="missing column"):
            load_corpus(path)

    @pytest.mark.parametrize("bad, line, detail", [
        # DictReader would read label " world" and key "s" by None
        ("d90,hello, world,pos,s", 5, ""),
        # every field the header names must be there, not only the three read
        ("d90,hello,pos", 5, ""),
        ("d90,\"" + "a" * (csv.field_size_limit() + 1) + "\",pos,s", 5,
         ": field larger than field limit"),
        # a quoted text over lines 5-6, then a short row on line 7, the 6th record
        ("d90,\"two\nlines\",pos,s\nd91,hello", 7, ""),
    ], ids=["extra-field", "short-of-an-unread-column", "field-over-the-limit",
            "short-row-after-a-two-line-text"])
    def test_malformed_csv_row_names_its_line(self, tmp_path, bad, line, detail):
        lines = ["id,text,label,source"] + [f"d{i},text {i},{'ab'[i % 2]},s" for i in range(12)]
        lines.insert(4, bad)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^malformed row at line {line}{detail or '$'}"):
            load_corpus(path)

    def test_malformed_jsonl_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "t", "label": "x"}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path, fmt="jsonl")

    @pytest.mark.parametrize("key", ["id", "text", "label"])
    @pytest.mark.parametrize("value", [None, True, ["a", "list"], {"a": 1}],
                             ids=["null", "boolean", "array", "object"])
    def test_jsonl_field_that_is_not_text_names_line_and_field(self, tmp_path, key, value):
        rows = [{"id": f"d{i}", "text": f"text {i}", "label": "ab"[i % 2]}
                for i in range(12)]
        rows[4][key] = value
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(DataError, match=f"^malformed row at line 5: {key} must be "
                                            "a string or a number$"):
            load_corpus(path, fmt="jsonl")

    def test_jsonl_numbers_are_kept_as_text(self, tmp_path):
        rows = [{"id": i, "text": 2.5, "label": i % 2} for i in range(12)]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_corpus(path, fmt="jsonl")
        assert corpus.ids == [str(i) for i in range(12)]
        assert corpus.texts == ["2.5"] * 12
        assert corpus.labels == ["0", "1"] * 6

    def test_too_small(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("id,text,label\na,t,x\nb,t,y\n")
        with pytest.raises(DataError, match="too small"):
            load_corpus(path)

    def test_single_label(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,text,label\n" + "\n".join(f"d{i},t,x" for i in range(12)))
        with pytest.raises(DataError, match="single-label"):
            load_corpus(path)

    def test_bad_ratio(self, corpus_csv):
        with pytest.raises(DataError, match="split_ratio"):
            load_corpus(corpus_csv, split_ratio=1.0)

    def test_split_with_no_test_document(self, tmp_path):
        # 0.95 of each label's 5 documents rounds to all 5
        path = tmp_path / "ten.csv"
        path.write_text("id,text,label\n" + "\n".join(f"d{i},t,{'ab'[i % 2]}" for i in range(10)))
        with pytest.raises(DataError, match=r"split_ratio 0\.95 .*10 train, 0 test"):
            load_corpus(path, split_ratio=0.95)

    def test_split_equals_permuted_index_arrays(self, tmp_path):
        # the split as each label's index array permuted by position,
        # frozen: labels of 1 to 23 documents, interleaved, over several seeds
        # and ratios
        sizes = {"a": 1, "b": 2, "c": 5, "d": 9, "e": 23}
        labels = [lab for k in range(23) for lab, n in sizes.items() if k < n]
        path = tmp_path / "sizes.csv"
        path.write_text("id,text,label\n"
                        + "".join(f"d{i},t,{lab}\n" for i, lab in enumerate(labels)))
        for seed in range(6):
            for ratio in (0.2, 0.5, 0.8):
                rng = make_rng(seed)
                train, test = [], []
                for lab in sorted(sizes):
                    idx = np.array([i for i, x in enumerate(labels) if x == lab])
                    shuffled = idx[rng.permutation(len(idx))]
                    n_train = max(1, round(ratio * len(idx)))
                    train += shuffled[:n_train].tolist()
                    test += shuffled[n_train:].tolist()
                corpus = load_corpus(path, split_ratio=ratio, seed=seed)
                assert (corpus.train_idx, corpus.test_idx) == (sorted(train), sorted(test))

    def test_unknown_format(self, corpus_csv):
        with pytest.raises(DataError, match="unknown corpus format"):
            load_corpus(corpus_csv, fmt="xml")


# ---------------------------------------------------------------------------
# Hyperparameter space
# ---------------------------------------------------------------------------

class TestHyperparamSpace:
    def test_continuous_decode_clamps(self):
        d = HyperparamDim("x", "continuous", 0.0, 1.0)
        assert d.decode(0.4) == 0.4
        assert d.decode(-3.0) == 0.0
        assert d.decode(9.0) == 1.0

    def test_integer_decode_rounds_half_up(self):
        d = HyperparamDim("k", "integer", 1, 5)
        assert d.decode(2.5) == 3
        assert d.decode(2.49) == 2
        assert d.decode(0.0) == 1
        assert d.decode(99.0) == 5

    def test_integer_decode_stays_within_non_integral_bounds(self):
        # the nearest integer inside [lo, hi]: ceil(lo) below it, floor(hi) above
        low = HyperparamDim("max_terms", "integer", 0.2, 10)
        assert [low.decode(x) for x in (0.3, -7.0, 0.2, 0.6, 9.9, 12.0)] == [1, 1, 1, 1, 10, 10]
        negative = HyperparamDim("k", "integer", -5, -2.3)
        assert [negative.decode(x) for x in (-2.3, 0.0, -2.6, -5.4, -9.0)] == [-3, -3, -3, -5, -5]
        rng = make_rng(9)
        for lo, width in zip(rng.uniform(-20.0, 20.0, 300), rng.uniform(1.0, 9.0, 300)):
            d = HyperparamDim("k", "integer", lo, lo + width)
            for x in rng.uniform(lo - 5.0, lo + width + 5.0, 20):
                v = d.decode(x)
                assert type(v) is int and d.lo <= v <= d.hi, (d, x, v)

    def test_integer_dimension_without_an_integer_is_refused(self):
        with pytest.raises(ValueError, match="'k' has no integer in"):
            HyperparamDim("k", "integer", 0.2, 0.8)
        with pytest.raises(ValueError, match="'k' has no integer in"):
            HyperparamDim("k", "integer", -2.9, -2.1)
        assert HyperparamDim("k", "integer", 0.2, 1.0).decode(0.0) == 1

    def test_categorical_decode_bins(self):
        d = HyperparamDim("c", "categorical", choices=("a", "b", "c"))
        assert d.decode(0.2) == "a"
        assert d.decode(1.999) == "b"
        assert d.decode(2.5) == "c"
        assert d.decode(3.0) == "c"  # upper edge clamps into the last bin
        assert d.decode(-1.0) == "a"

    def test_box_bounds(self):
        s = default_tuning_space()
        box = s.to_box()
        assert box.lower.tolist() == [1.0, 10.0, 0.0, 0.01]
        assert box.upper.tolist() == [5.0, 2000.0, 2.0, 5.0]

    def test_encode_decode_round_trip_random(self):
        space = default_tuning_space()
        rng = make_rng(0)
        box = space.to_box()
        for _ in range(10_000):
            x = rng.uniform(box.lower, box.upper)
            params = space.decode(x)
            again = space.decode(space.encode(params))
            assert params == again

    def test_encode_known_point(self):
        space = default_tuning_space()
        x = space.encode({"min_doc_freq": 2, "max_terms": 100,
                          "use_stemming": True, "nb_smoothing": 1.0})
        np.testing.assert_allclose(x, [2.0, 100.0, 1.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown dimension kind"):
            HyperparamDim("x", "boolean")
        with pytest.raises(ValueError, match="needs choices"):
            HyperparamDim("x", "categorical")
        with pytest.raises(ValueError, match="inverted"):
            HyperparamDim("x", "continuous", 2.0, 1.0)


# ---------------------------------------------------------------------------
# Naive Bayes + objective
# ---------------------------------------------------------------------------

class TestNaiveBayes:
    def test_separable_features(self):
        X = np.array([[3.0, 0.0], [4.0, 0.1], [0.0, 2.0], [0.2, 5.0]])
        labels = ["a", "a", "b", "b"]
        lp, ll = train_nb(X, labels, ["a", "b"], smoothing=0.1)
        assert predict_nb(X, ["a", "b"], lp, ll) == labels

    def test_prior_shape_and_normalization(self):
        X = np.ones((4, 3))
        lp, ll = train_nb(X, ["a", "a", "a", "b"], ["a", "b"], smoothing=1.0)
        assert lp.shape == (2,)
        assert ll.shape == (2, 3)
        np.testing.assert_allclose(np.exp(lp).sum(), 1.0)
        np.testing.assert_allclose(np.exp(ll).sum(axis=1), [1.0, 1.0])

    def test_uniform_features_fall_back_to_prior(self):
        X = np.ones((4, 2))
        lp, ll = train_nb(X, ["a", "a", "a", "b"], ["a", "b"], smoothing=1.0)
        assert predict_nb(np.ones((1, 2)), ["a", "b"], lp, ll) == ["a"]

    def test_adapter_bytes_equal_mask_reference(self):
        sizes_seen = set()
        for X, labels, classes in itertools.chain(nb_cases(0, 200), nb_cases(1, 100, (1,))):
            sizes_seen.update(labels.count(c) for c in classes)
            for smoothing in (0.01, 0.5, 1.0, 5.0):
                got = train_nb(X, labels, classes, smoothing)
                assert_same_bits(got, train_nb_reference(X, labels, classes, smoothing))
                assert got[1].flags.c_contiguous  # as the reference's, for predict_nb
        assert {0, 1} <= sizes_seen

    def test_kernel_on_selected_totals_bytes_equal_mask_reference(self):
        # an evaluation selects columns of totals summed once over every
        # column; a single column is summed from the selected matrix instead
        rng = make_rng(1)
        for X, labels, classes in itertools.chain(nb_cases(2, 150), nb_cases(3, 50, (1,))):
            codes = harness._codes(labels, classes)
            sizes = np.bincount(codes[codes >= 0], minlength=len(classes))
            totals = harness._class_totals(X, codes, len(classes))
            assert_same_bits([totals], [class_sums(X, labels, classes)])
            n_feat = X.shape[1]
            picks = [np.sort(rng.choice(n_feat, size=int(rng.integers(1, n_feat + 1)),
                                        replace=False)) for _ in range(3)]
            for cols in picks + [np.array([int(rng.integers(n_feat))])]:
                if len(cols) == 1:
                    selected = harness._class_totals(np.take(X, cols, axis=1), codes,
                                                     len(classes))
                else:
                    selected = np.take(totals, cols, axis=1)
                for smoothing in (0.01, 1.0, 5.0):
                    got = (harness._log_prior(sizes, X.shape[0]),
                           harness._nb_log_lik(selected, smoothing,
                                               selected.sum(axis=1).tolist()))
                    want = train_nb_reference(X[:, cols], labels, classes, smoothing)
                    assert_same_bits(got, want)


    @pytest.mark.parametrize("n_test", [1, 2, 17])
    @pytest.mark.parametrize("n_terms", [1, 2, 267])
    @pytest.mark.parametrize("n_classes", [2, 3, 6])
    def test_stacked_kernel_equals_the_frozen_per_point_kernel(self, n_test, n_terms,
                                                                n_classes):
        # each slice of a stack (one smoothing) must get the log likelihoods,
        # the codes and the scores the per-point kernel gave that smoothing
        # alone, on stacks of one, two and 40 (more than one _nb_log_lik
        # call stacks on the widest of these shapes, so _fit_score scores
        # several joined blocks of codes), with the test matrix in the F
        # order a selection has and in C order
        rng = make_rng(n_test * 10_000 + n_terms * 10 + n_classes)
        order = rng.permutation(n_classes)
        test_codes = rng.integers(0, n_classes, n_test)
        # a preparation with one column selection, whatever the configuration
        prep = SimpleNamespace(classes=list(range(n_classes)), repr_order=order,
                               log_prior=np.log(rng.dirichlet(np.ones(n_classes))),
                               test_codes=test_codes,
                               gold_counts=np.bincount(test_codes,
                                                       minlength=n_classes)[order].tolist())
        totals = (rng.exponential(3.0, (n_classes, n_terms))
                  * rng.integers(0, 2, (n_classes, n_terms)))
        row_totals = totals.sum(axis=1).tolist()
        test = rng.exponential(1.0, (n_terms, n_test)) * rng.integers(0, 2, (n_terms, n_test))
        for X_test in (test.T, np.ascontiguousarray(test.T)):
            prep.columns = lambda *_, X_test=X_test: (totals, X_test, row_totals)
            for m in (1, 2, 40):
                smoothings = rng.uniform(0.01, 5.0, m).tolist()
                frozen = [frozen_nb_score(prep, totals, X_test, s) for s in smoothings]
                log_lik = harness._nb_log_lik(totals, smoothings, row_totals)
                assert_same_bits(log_lik, [ll for _, ll, _ in frozen])
                codes = harness._nb_codes(X_test, prep.log_prior, log_lik)
                assert codes.tolist() == [k for _, _, c in frozen for k in c.tolist()]
                got = harness._fit_score(prep, [(False, n_terms, s) for s in smoothings])
                assert ([[v.hex() for v in score] for score in got]
                        == [[v.hex() for v in score] for score, _, _ in frozen])


class TestClassifierObjective:
    def test_fitness_in_unit_interval(self, corpus_csv):
        corpus = load_corpus(corpus_csv)
        space = default_tuning_space()
        obj = classifier_objective(corpus, space)
        x = space.encode({"min_doc_freq": 1, "max_terms": 500,
                          "use_stemming": True, "nb_smoothing": 1.0})
        f = obj(x)
        assert 0.0 <= f <= 1.0

    def test_good_config_beats_chance(self, corpus_csv):
        corpus = load_corpus(corpus_csv)
        space = default_tuning_space()
        obj = classifier_objective(corpus, space)
        x = space.encode({"min_doc_freq": 1, "max_terms": 500,
                          "use_stemming": True, "nb_smoothing": 1.0})
        assert obj(x) < 0.5  # macro-F above 0.5 on a separable corpus

    def test_degenerate_region_scores_worst(self, corpus_csv):
        corpus = load_corpus(corpus_csv)
        space = default_tuning_space()
        obj = classifier_objective(corpus, space)
        # min_doc_freq = 5 with tiny max_terms can still produce a vocab, so
        # force degeneracy via an impossible doc-frequency threshold instead
        x = space.encode({"min_doc_freq": 5, "max_terms": 10,
                          "use_stemming": False, "nb_smoothing": 0.01})
        assert obj(x) <= 1.0

    def test_cache_consistency(self, corpus_csv):
        corpus = load_corpus(corpus_csv)
        space = default_tuning_space()
        obj = classifier_objective(corpus, space)
        x = space.encode({"min_doc_freq": 2, "max_terms": 100,
                          "use_stemming": False, "nb_smoothing": 0.5})
        assert obj(x) == obj(x + 1e-9)  # decodes to the same params

    def test_fit_score_matches_objective(self, corpus_csv):
        corpus = load_corpus(corpus_csv)
        space = default_tuning_space()
        obj = classifier_objective(corpus, space)
        x = space.encode({"min_doc_freq": 1, "max_terms": 200,
                          "use_stemming": True, "nb_smoothing": 1.0})
        _, macro_f = obj.fit_score(x)
        assert obj(x) == pytest.approx(1.0 - macro_f)

    def test_wrong_length_point_raises(self, corpus_csv):
        # a short point must not decode to a partial dict, nor a long one
        # lose its last coordinate and be scored
        space = default_tuning_space()
        obj = classifier_objective(load_corpus(corpus_csv), space)
        x = space.encode({"min_doc_freq": 1, "max_terms": 200,
                          "use_stemming": True, "nb_smoothing": 1.0})
        for bad in (x[:2], np.append(x, 1.0)):
            for call in (space.decode, obj, obj.fit_score):
                with pytest.raises(ValueError):
                    call(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["min_doc_freq", "use_stemming", "nb_smoothing"])
    def test_non_finite_coordinate_names_its_dimension(self, corpus_csv, name, value):
        # an integer, a categorical and a continuous dimension: a NaN must not
        # be scored (nor fail to convert to int), and +-inf must not overflow
        # or clamp
        space = default_tuning_space()
        obj = classifier_objective(load_corpus(corpus_csv), space)
        x = space.encode({"min_doc_freq": 1, "max_terms": 200,
                          "use_stemming": True, "nb_smoothing": 1.0})
        x[[d.name for d in space.dims].index(name)] = value
        for call in (space.decode, obj, obj.fit_score):
            with pytest.raises(ValueError, match=f"dimension '{name}' got a non-finite"):
                call(x)

    def test_non_positive_smoothing_scores_worst(self, corpus_csv):
        # a config space may reach nb_smoothing <= 0, where the log likelihoods
        # would take the log of zero or of a negative number
        default = default_tuning_space()
        space = HyperparamSpace(default.dims[:3]
                                + (HyperparamDim("nb_smoothing", "continuous", -1.0, 1.0),))
        obj = classifier_objective(load_corpus(corpus_csv), space)

        def x(smoothing):
            return space.encode({"min_doc_freq": 1, "max_terms": 500,
                                 "use_stemming": True, "nb_smoothing": smoothing})

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for smoothing in (-1.0, -0.25, 0.0):
                assert obj.fit_score(x(smoothing)) == (0.0, 0.0)
                assert obj(x(smoothing)) == 1.0
            assert obj(x(0.5)) < 0.5

    def test_miss_calls_each_stage_once_and_hit_none(self, corpus_csv, monkeypatch):
        # the stages a miss runs, called through module attributes:
        # _fit_score once per call that misses, and the NB fit and the
        # class-code scorer once per column selection it misses, whatever the
        # number of smoothings stacked on it; an all-hit call runs none. The
        # label-list adapters (train_nb, predict_nb and the two metrics,
        # which perfbench's trace wraps) are for other callers and never run.
        calls = Counter()
        stages = ("_nb_log_lik", "_nb_codes", "_fit_score", "train_nb",
                  "predict_nb", "accuracy_metric", "f_score_metric")
        for name in stages:
            def counted(*args, _fn=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(harness, name, counted)
        space = default_tuning_space()
        obj = classifier_objective(load_corpus(corpus_csv), space)

        def x(**over):
            return space.encode(dict({"min_doc_freq": 2, "max_terms": 100,
                                      "use_stemming": False, "nb_smoothing": 0.5}, **over))

        def runs(fits, selections):
            return dict(dict.fromkeys(("_nb_log_lik", "_nb_codes"), selections), _fit_score=fits)

        obj(x())
        assert calls == runs(1, 1)
        obj(x())
        assert calls == runs(1, 1)
        # three smoothings on one selection, one of them twice, and a hit
        obj.batch([x(nb_smoothing=1.5), x(), x(nb_smoothing=2.5), x(nb_smoothing=1.5)])
        assert calls == runs(2, 2)
        # two selections: stemmed, and max_terms cutting the prefix
        obj.batch([x(use_stemming=True), x(max_terms=10), x(use_stemming=True, nb_smoothing=3.0)])
        assert calls == runs(3, 4)
        obj.batch([x(max_terms=10), x(nb_smoothing=2.5), x(use_stemming=True)])
        assert calls == runs(3, 4)

    def test_fit_score_runs_once_per_distinct_fit(self, corpus_csv, monkeypatch):
        # every configuration the kernel stacks is recorded by its inputs:
        # the selected totals and its smoothing
        fitted = Counter()

        def counted(totals, smoothings, row_totals, _fn=harness._nb_log_lik):
            fitted.update((totals.tobytes(), s) for s in smoothings)
            return _fn(totals, smoothings, row_totals)

        monkeypatch.setattr(harness, "_nb_log_lik", counted)
        space = default_tuning_space()
        box = space.to_box()
        corpus = load_corpus(corpus_csv)
        obj = classifier_objective(corpus, space)
        rng = make_rng(3)
        # a coarse grid of points, so that many decode alike, each visited
        # three times: in batches of 50 (duplicates within and across
        # batches), one at a time, and in one batch
        X = rng.uniform(box.lower, box.upper, size=(150, box.dims))
        X[:, 1] = np.round(X[:, 1], -3)
        X[:, 3] = np.round(X[:, 3])
        for i in range(0, len(X), 50):
            obj.batch(X[i:i + 50])
        for x in X[::-1]:
            obj(x)
        obj.batch(X)
        configs = {tuple(space.decode(x).items()) for x in X}
        assert len(configs) < len(X)
        prep = harness._PreparedCorpus(corpus, harness._max_terms_cap(space))
        live = [c for c in map(dict, configs) if prep.fit_key(c)]
        fits = {prep.fit_key(c) for c in live}
        assert len(fits) < len(live)  # configurations that decode apart share fits
        assert fitted == Counter((prep.columns(use_stemming, n_terms)[0].tobytes(), smoothing)
                                 for use_stemming, n_terms, smoothing in fits)

    def test_same_selection_and_smoothing_is_fitted_once_as_one_float(self, corpus_csv,
                                                                      monkeypatch):
        # min_doc_freq and max_terms reach a fit only through the term
        # count, so two configurations that differ in them but select the
        # same columns, with the same smoothing, share one fit and one float
        space = default_tuning_space()
        corpus = load_corpus(corpus_csv)
        prep = harness._PreparedCorpus(corpus, harness._max_terms_cap(space))
        base = {"min_doc_freq": 1, "max_terms": 2000, "use_stemming": True, "nb_smoothing": 0.5}
        key = prep.fit_key(base)
        twin = dict(base, min_doc_freq=2, max_terms=key[1])
        assert prep.fit_key(twin) == key and key[1] > 1
        handed = []
        fit = harness._fit_score
        monkeypatch.setattr(harness, "_fit_score",
                            lambda prep, keys: handed.extend(keys) or fit(prep, keys))
        obj = classifier_objective(corpus, space)
        first, second = obj.batch([space.encode(base), space.encode(twin)])
        assert first is second
        assert obj(space.encode(twin)) is first
        assert handed == [key]
        assert first.hex() == (1.0 - fit(prep, [prep.fit_key(twin)])[0][1]).hex()

    def test_degenerate_configurations_run_no_kernel(self, graded_corpus_csv, monkeypatch):
        # every degenerate configuration shares one memo entry, and neither
        # a batch nor fit_score runs the NB fit or the class-code scorer on
        # one
        calls = Counter()
        for name in ("_nb_log_lik", "_nb_codes", "_class_totals"):
            def counted(*args, _fn=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(harness, name, counted)
        corpus = load_corpus(graded_corpus_csv)
        space = HyperparamSpace((HyperparamDim("min_doc_freq", "integer", 0, 200),
                                 HyperparamDim("max_terms", "integer", 0, 2000))
                                + (default_tuning_space().dims[2],
                                   HyperparamDim("nb_smoothing", "continuous", -1.0, 5.0)))
        obj = classifier_objective(corpus, space)
        calls.clear()  # the preparation sums class totals
        live = {"min_doc_freq": 1, "max_terms": 40, "use_stemming": False, "nb_smoothing": 1.0}
        degenerate = [dict(live, min_doc_freq=0), dict(live, max_terms=0),
                      dict(live, nb_smoothing=0.0), dict(live, nb_smoothing=-0.5),
                      dict(live, min_doc_freq=len(corpus.train_idx) + 1, use_stemming=True)]
        X = [space.encode(p) for p in degenerate]
        got = obj.batch(X)
        assert got == [1.0] * len(X) and all(v is got[0] for v in got)
        assert [obj.fit_score(x) for x in X] == [(0.0, 0.0)] * len(X)
        assert calls == Counter()
        assert list(inspect.getclosurevars(obj.batch).nonlocals["memo"]) == [None]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_call_scores_each_configuration_as_alone(self, graded_corpus_csv, data):
        # _fit_score on a batch gives each configuration the bits a call of
        # its own gives it. The batches mix column selections (cut and whole
        # prefixes, one-term ones, both stemming variants), degenerate
        # configurations and, on one selection, more smoothings than one
        # stack holds.
        prep = prepared(graded_corpus_csv)
        whole = {"min_doc_freq": 1, "max_terms": 2000, "use_stemming": False}
        per_stack = harness._STACK_ELEMENTS // prep.columns(
            *prep.fit_key(dict(whole, nb_smoothing=1.0))[:2])[0].size
        smoothing = st.sampled_from((-0.5, 0.0, 0.01, 1.0)) | st.floats(0.01, 5.0)
        mixed = st.lists(st.fixed_dictionaries({
            "min_doc_freq": st.integers(0, 8) | st.sampled_from((30, 91)),
            "max_terms": st.sampled_from((0, 1, 2, 7, 40, 2000)) | st.integers(0, 400),
            "use_stemming": st.booleans(),
            "nb_smoothing": smoothing}), max_size=30)
        stacked = st.lists(smoothing, max_size=2 * per_stack + 3).map(
            lambda ss: [dict(whole, nb_smoothing=s) for s in ss])
        configs = data.draw(st.tuples(mixed, stacked).flatmap(
            lambda parts: st.permutations(parts[0] + parts[1])))
        keys = [prep.fit_key(c) for c in configs]
        got = harness._fit_score(prep, keys)
        want = [harness._fit_score(prep, [k])[0] for k in keys]
        assert [[v.hex() for v in s] for s in got] == [[v.hex() for v in s] for s in want]

    def test_repeated_point_returns_the_identical_float(self, corpus_csv):
        corpus = load_corpus(corpus_csv)
        space = default_tuning_space()
        obj = classifier_objective(corpus, space)
        rng = make_rng(4)
        box = space.to_box()
        for x in rng.uniform(box.lower, box.upper, size=(20, box.dims)):
            first = obj(x)
            assert obj(x) is first
            assert obj(x.copy()) is first
            fresh = classifier_objective(corpus, space)(x)
            assert fresh.hex() == first.hex() == (1.0 - obj.fit_score(x)[1]).hex()

    @pytest.mark.parametrize("corpus_name", ["graded_corpus_csv", "lopsided_corpus_csv"])
    def test_batch_equals_one_call_per_row(self, corpus_name, request):
        # A batch must give each row the float an objective of its own gives
        # it, called one row at a time, and that call 1 - macro-F of
        # fit_score (the one-point path the pinned tests check). The space
        # reaches degenerate configurations (min_doc_freq or max_terms of 0,
        # smoothing <= 0), min_doc_freqs above every df, one-term prefixes
        # (the lopsided corpus) and cut selections, some as wide as a stemmed
        # prefix; rows repeat within the batch, some were scored by an
        # earlier batch, and one selection stacks more smoothings than one
        # kernel call takes.
        corpus = load_corpus(request.getfixturevalue(corpus_name))
        space = HyperparamSpace((HyperparamDim("min_doc_freq", "integer", 0, 80),
                                 HyperparamDim("max_terms", "integer", 0, 2000),
                                 HyperparamDim("use_stemming", "categorical",
                                               choices=(False, True)),
                                 HyperparamDim("nb_smoothing", "continuous", -0.5, 5.0)))
        probe = harness._PreparedCorpus(corpus, harness._max_terms_cap(space))

        def n_terms(params):
            key = probe.fit_key(params)
            return key[1] if key else 0

        def prefix(use_stemming, min_doc_freq):  # the number of terms with df >= min_doc_freq
            return n_terms({"min_doc_freq": min_doc_freq, "max_terms": 2000,
                            "use_stemming": use_stemming, "nb_smoothing": 1.0})

        df = np.sort(probe.variants[False][3])[::-1]
        stemmed_terms = prefix(True, 1)  # a cut of the unstemmed terms as wide
        grid = [{"min_doc_freq": mdf, "max_terms": mt, "use_stemming": st, "nb_smoothing": sm}
                for mdf in (0, 1, 2, int(df[1]) + 1, int(df[0]) + 1)
                for mt in (0, 1, 2, 7, 40, stemmed_terms, 2000) for st in (False, True)
                for sm in (-0.5, 0.0, 0.3)]
        # one selection, every term, over more than one kernel call
        per_call = harness._STACK_ELEMENTS // probe.columns(False, prefix(False, 1))[0].size
        big = [{"min_doc_freq": 1, "max_terms": 2000, "use_stemming": False,
                "nb_smoothing": 0.01 + 0.1 * i} for i in range(per_call + 9)]
        box = space.to_box()
        X = np.concatenate([[space.encode(p) for p in grid + big],
                            make_rng(5).uniform(box.lower, box.upper, size=(200, box.dims))])
        X = X[make_rng(6).permutation(len(X))]
        X = np.concatenate([X, X[::3]])  # repeats within the batch
        configs = [space.decode(x) for x in X]
        assert any(n_terms(c) == 1 for c in configs)
        assert any(1 < n_terms(c) < prefix(c["use_stemming"], c["min_doc_freq"])
                   for c in configs if c["min_doc_freq"] >= 1)
        whole = classifier_objective(corpus, space)
        early = whole.batch(X[::7])  # hits for the batch below
        got = whole.batch(X)
        rows = classifier_objective(corpus, space)
        want = [rows(x).hex() for x in X]
        assert want == [(1.0 - rows.fit_score(x)[1]).hex() for x in X]
        assert [v.hex() for v in got] == want
        assert [v.hex() for v in early] == want[::7]
        assert 1.0 in got and len(set(got)) > 5

    def test_a_call_is_the_first_value_of_a_one_row_batch(self, corpus_csv):
        space = default_tuning_space()
        box = space.to_box()
        obj = classifier_objective(load_corpus(corpus_csv), space)
        for i, x in enumerate(make_rng(7).uniform(box.lower, box.upper, size=(20, box.dims))):
            first = obj(x) if i % 2 else obj.batch([x])[0]
            assert obj(x) is obj.batch([x])[0] is first

    def test_a_row_is_decoded_and_keyed_once(self, corpus_csv, monkeypatch):
        # fit_key is the one reader of a decoded configuration: every row a
        # batch, a call or fit_score is handed is decoded once and keyed
        # once, whether it misses, repeats within the batch or hits
        calls = Counter()
        for cls, name in ((HyperparamSpace, "decode"), (harness._PreparedCorpus, "fit_key")):
            def counted(self, arg, _fn=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _fn(self, arg)
            monkeypatch.setattr(cls, name, counted)
        space = default_tuning_space()
        box = space.to_box()
        obj = classifier_objective(load_corpus(corpus_csv), space)
        X = make_rng(8).uniform(box.lower, box.upper, size=(30, box.dims))
        X = np.concatenate([X, X[::2]])
        rows = 0
        for batch in (X[:20], X, X[5:]):
            obj.batch(batch)
            rows += len(batch)
            assert calls == {"decode": rows, "fit_key": rows}
        obj(X[0])
        obj.fit_score(X[1])
        assert calls == {"decode": rows + 2, "fit_key": rows + 2}

    def test_fit_score_is_pinned_over_a_grid(self, graded_corpus_csv):
        # 400 configurations on three classes, where the order of macro-F's
        # sum shows in the last bits; recorded before the objective changed
        prep = harness._PreparedCorpus(load_corpus(graded_corpus_csv), 2000)
        grid = itertools.product(range(1, 6), (1, 2, 3, 10, 30, 100, 400, 2000),
                                 (False, True), (0.01, 0.1, 0.5, 1, 5))
        scores = [harness._fit_score(prep, [prep.fit_key({"min_doc_freq": m, "max_terms": t,
                                                           "use_stemming": s,
                                                           "nb_smoothing": a})])[0]
                  for m, t, s, a in grid]
        assert len(scores) == 400
        assert hashlib.sha256(repr(scores).encode()).hexdigest() == \
            "1181a85a57fe1e6cc834f370d33ce5ff40508d5972b73b1e683b3de57de2823a"

    def test_min_doc_freq_above_every_document_frequency_scores_zero(self, graded_corpus_csv):
        corpus = load_corpus(graded_corpus_csv)
        prep = harness._PreparedCorpus(corpus, 2000)
        params = {"min_doc_freq": len(corpus.train_idx) + 1, "max_terms": 2000,
                  "use_stemming": False, "nb_smoothing": 1.0}
        assert prep.fit_key(params) is None
        assert harness._fit_score(prep, [prep.fit_key(params)])[0] == (0.0, 0.0)

    @pytest.mark.parametrize("corpus_name", ["graded_corpus_csv", "lopsided_corpus_csv"])
    def test_fit_score_equals_two_matrix_reference(self, corpus_name, request, monkeypatch):
        # The objective selects columns of per-class totals summed once; the
        # reference selects columns of the train and test count matrices,
        # weights them and fits with a mask per class, as every evaluation
        # once did. The kernel and the class-code scorer must get the same
        # bits, and the test matrix the same layout (the strides of its axes
        # longer than 1), since a matrix product's rounding can follow its
        # operands' layout. max_terms 1 covers the one-column sum.
        corpus = load_corpus(request.getfixturevalue(corpus_name))
        classes = corpus.label_set
        train_labels = [corpus.labels[i] for i in corpus.train_idx]
        test_labels = [corpus.labels[i] for i in corpus.test_idx]
        matrices = {}
        for use_stemming in (False, True):
            tokens = [textpipe.preprocess(t, use_stemming=use_stemming) for t in corpus.texts]
            train = [tokens[i] for i in corpus.train_idx]
            test = [tokens[i] for i in corpus.test_idx]
            vocab = textpipe.build_vocabulary(train)
            df = doc_frequencies_reference(train, vocab)
            matrices[use_stemming] = (textpipe.bow_vectorize(train, vocab),
                                      textpipe.bow_vectorize(test, vocab), df,
                                      np.lexsort((np.arange(len(vocab)), -df)))

        def reference(params):
            train, test, df, order = matrices[params["use_stemming"]]
            n_terms = min(int(np.count_nonzero(df >= params["min_doc_freq"])),
                          params["max_terms"])
            if n_terms == 0:
                return None, (0.0, 0.0)
            cols = np.sort(order[:n_terms])
            idf = np.log(train.shape[0] / np.maximum(df[cols], 1))
            X_train, X_test = train[:, cols] * idf, test[:, cols] * idf
            log_prior, log_lik = train_nb_reference(X_train, train_labels, classes,
                                                    params["nb_smoothing"])
            pred = predict_nb_reference(X_test, classes, log_prior, log_lik)
            return ((class_sums(X_train, train_labels, classes), X_test, log_prior, log_lik),
                    (accuracy(pred, test_labels), f_score_reference(pred, test_labels)))

        seen = []
        kernel = harness._nb_log_lik
        monkeypatch.setattr(harness, "_nb_log_lik",
                            lambda *args: seen.append(args[0]) or kernel(*args))
        scorer = harness._nb_codes
        monkeypatch.setattr(harness, "_nb_codes",
                            lambda *args: seen.extend(args) or scorer(*args))
        space = default_tuning_space()
        space = HyperparamSpace((HyperparamDim("min_doc_freq", "integer", 1, 5),
                                 HyperparamDim("max_terms", "integer", 1, 2000))
                                + space.dims[2:])
        obj = classifier_objective(corpus, space)
        points = [space.encode({"min_doc_freq": mdf, "max_terms": mt,
                                "use_stemming": st, "nb_smoothing": sm})
                  for mdf in range(1, 6) for mt in (1, 2, 3, 9, 40, 500, 2000)
                  for st in (False, True) for sm in (0.01, 0.3, 5.0)]
        rng = make_rng(4)
        box = space.to_box()
        points += [rng.uniform(box.lower, box.upper) for _ in range(300)]
        distinct = set()
        for x in points:
            inputs, want = reference(space.decode(x))
            seen.clear()
            assert obj.fit_score(x) == want, space.decode(x)
            if inputs is None:
                assert seen == []
            else:
                assert layout(seen[1]) == layout(inputs[1])
                assert_same_bits(seen, inputs)
            distinct.add(want)
        assert len(distinct) > 5

    def test_coded_scores_equal_label_metrics(self, graded_corpus_csv, tmp_path, monkeypatch):
        # A miss counts class codes; metrics.accuracy and f_score on the same
        # predictions as labels must give the same bits. By repr, "ab c" and
        # "it's" come before "ab", unlike their str order, and "solo" has a
        # single document, so no test document.
        with open(graded_corpus_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        names = {"a": "ab", "b": "ab c", "c": "it's"}
        path = tmp_path / "relabelled.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "text", "label"])
            writer.writerows([(i, text, names[label]) for i, text, label in rows])
            writer.writerow(("lone", rows[0][1], "solo"))
        corpus = load_corpus(str(path))
        classes = corpus.label_set
        assert sorted(classes, key=repr) != classes
        test_labels = [corpus.labels[i] for i in corpus.test_idx]
        assert "solo" not in test_labels

        codes = []
        scorer = harness._nb_codes
        monkeypatch.setattr(harness, "_nb_codes",
                            lambda *args: codes.append(scorer(*args)) or codes[-1])
        space = default_tuning_space()
        box = space.to_box()
        obj = classifier_objective(corpus, space)
        rng = make_rng(6)
        distinct = set()
        for _ in range(400):
            x = rng.uniform(box.lower, box.upper)
            codes.clear()
            got = obj.fit_score(x)
            pred = [classes[c] for c in codes[0].tolist()]
            want = accuracy(pred, test_labels), f_score(pred, test_labels)
            assert [v.hex() for v in got] == [v.hex() for v in want], space.decode(x)
            distinct.add(got)
        assert len(distinct) > 20

    def test_fit_score_equals_per_evaluation_oracle(self, graded_corpus_csv):
        # The objective selects columns of count matrices built once; the
        # oracle builds its own vocabulary and matrices for every point. The
        # corpus has document frequencies from 1 up, the second space caps
        # max_terms below its vocabulary, and the third lists max_terms as
        # categories, so it has no cap to prepare with.
        corpus = load_corpus(graded_corpus_csv)
        classes = corpus.label_set
        train_labels = [corpus.labels[i] for i in corpus.train_idx]
        test_labels = [corpus.labels[i] for i in corpus.test_idx]
        tokens = {s: [textpipe.preprocess(t, use_stemming=s) for t in corpus.texts]
                  for s in (False, True)}

        def oracle(params):
            train = [tokens[params["use_stemming"]][i] for i in corpus.train_idx]
            test = [tokens[params["use_stemming"]][i] for i in corpus.test_idx]
            try:
                vocab = textpipe.build_vocabulary(train, params["min_doc_freq"],
                                                  params["max_terms"])
            except ValueError:
                return 0.0, 0.0
            if len(vocab) == 0:
                return 0.0, 0.0
            n_w = doc_frequencies_reference(train, vocab)
            idf = np.log(len(train) / np.maximum(n_w, 1))
            X_train = textpipe.bow_vectorize(train, vocab) * idf
            X_test = textpipe.bow_vectorize(test, vocab) * idf
            log_prior, log_lik = train_nb_reference(X_train, train_labels, classes,
                                                    params["nb_smoothing"])
            pred = predict_nb_reference(X_test, classes, log_prior, log_lik)
            return accuracy(pred, test_labels), f_score(pred, test_labels)

        default = default_tuning_space()
        capped = HyperparamSpace((
            HyperparamDim("min_doc_freq", "integer", 0, 5),
            HyperparamDim("max_terms", "integer", 0, 40),
            default.dims[2],
            default.dims[3],
        ))
        terms = {}
        for use_stemming in (False, True):
            n_vocab = len(textpipe.build_vocabulary(
                [tokens[use_stemming][i] for i in corpus.train_idx]))
            assert n_vocab > 60
            terms[use_stemming] = (0, 10, 11, 50, 500, n_vocab - 1, n_vocab, n_vocab + 1, 2000)
        listed = HyperparamSpace((
            default.dims[0],
            HyperparamDim("max_terms", "categorical",
                          choices=tuple(sorted(set(terms[False] + terms[True])))),
            default.dims[2],
            default.dims[3],
        ))
        distinct = set()
        for space in (default, capped, listed):
            obj = classifier_objective(corpus, space)
            for use_stemming in (False, True):
                for min_doc_freq in range(0, 6):
                    for max_terms in terms[use_stemming]:
                        for nb_smoothing in (0.01, 1.0, 5.0):
                            x = space.encode({"min_doc_freq": min_doc_freq,
                                              "max_terms": max_terms,
                                              "use_stemming": use_stemming,
                                              "nb_smoothing": nb_smoothing})
                            got = obj.fit_score(x)
                            assert got == oracle(space.decode(x)), space.decode(x)
                            distinct.add(got)
        assert len(distinct) > 20  # the grid is not one flat plateau

    @pytest.mark.parametrize("corpus_name, max_terms_hi", [
        ("graded_corpus_csv", 2000), ("lopsided_corpus_csv", 2000),
        ("graded_corpus_csv", 1.4), ("lopsided_corpus_csv", 1.4),
    ], ids=["graded_corpus_csv", "lopsided_corpus_csv",
            "graded_corpus_csv-one-term", "lopsided_corpus_csv-one-term"])
    def test_one_objective_scores_as_a_fresh_preparation_per_point(self, corpus_name,
                                                                   max_terms_hi, request,
                                                                   monkeypatch):
        # One objective scores a grid, every point twice, in a shuffled order:
        # each (use_stemming, min_doc_freq) prefix comes back after other
        # prefixes, with max_terms below, at and above its term count and with
        # other smoothings. Every score, and every array the NB kernel and the
        # class-code scorer get (bits and layout), must be those of a
        # preparation of every term made for that point alone, asked for the
        # same n terms as min_doc_freq 1 and max_terms n: the terms with
        # df >= min_doc_freq are a prefix of the order by df. On the lopsided
        # corpus, a min_doc_freq above every document frequency but alpha's
        # leaves a one-term prefix, summed pairwise, while max_terms does not
        # bind. A max_terms of at most 1.4, which decodes to 1 alone, prepares
        # a one-term vocabulary, whose totals are read whole where the fresh
        # preparation sums its one held training column. Each variant holds
        # that column alone of the training matrix.
        seen = []
        kernel, scorer = harness._nb_log_lik, harness._nb_codes
        monkeypatch.setattr(harness, "_nb_log_lik",
                            lambda *args: seen.append(args[0]) or kernel(*args))
        monkeypatch.setattr(harness, "_nb_codes",
                            lambda *args: seen.extend(args) or scorer(*args))

        def fit_score(fit):
            seen.clear()
            scores = [v.hex() for v in fit()]
            return scores, [(a.tobytes(), layout(a)) for a in seen]

        corpus = load_corpus(request.getfixturevalue(corpus_name))
        default = default_tuning_space()
        space = HyperparamSpace((HyperparamDim("min_doc_freq", "integer", 1, 80),
                                 HyperparamDim("max_terms", "integer", 1, max_terms_hi))
                                + default.dims[2:])
        cap = harness._max_terms_cap(space)
        probe = harness._PreparedCorpus(corpus, cap)
        widths = [len(probe.variants[s][4]) for s in (False, True)]
        assert widths == [1, 1] if cap == 1 else min(widths) > 1
        assert [probe.variants[s][0].shape for s in (False, True)] == \
            [(len(corpus.train_idx), 1)] * 2
        grid = []
        one_term_prefixes = 0
        for use_stemming in (False, True):
            df = np.sort(probe.variants[use_stemming][3])[::-1]
            min_doc_freqs = {1, 2, 3, 5, int(df[0]) + 1}
            if len(df) > 1 and df[0] > df[1]:
                min_doc_freqs.add(int(df[1]) + 1)  # alpha alone
            for min_doc_freq in sorted(min_doc_freqs):
                count = int(np.count_nonzero(df >= min_doc_freq))
                one_term_prefixes += count == 1
                max_terms = {1, 2, 2000} | {n for n in (count - 1, count, count + 1) if n >= 1}
                grid += [({"min_doc_freq": min_doc_freq, "max_terms": n,
                           "use_stemming": use_stemming, "nb_smoothing": a}, min(count, n))
                         for n in sorted(max_terms) for a in (0.01, 0.5, 5.0)]
        if corpus_name == "lopsided_corpus_csv" and cap > 1:
            assert one_term_prefixes == 2
        want = {}
        for params, n_terms in grid:
            fresh = harness._PreparedCorpus(corpus, None)
            config = dict(params, min_doc_freq=1, max_terms=n_terms)
            want[tuple(params.items())] = fit_score(
                lambda: harness._fit_score(fresh, [fresh.fit_key(config)])[0])
        # not one flat plateau, but where every fit has one term: its log
        # likelihoods are log(t + a) - log(t + a), 0 up to the last bit, so
        # the priors pick the class, and the scores are that fit's and 0's
        distinct = len({tuple(scores) for scores, _ in want.values()})
        assert distinct == 2 if cap == 1 else distinct > 3
        obj = classifier_objective(corpus, space)
        for i in make_rng(21).permutation(2 * len(grid)):
            params = grid[i % len(grid)][0]
            got = fit_score(lambda: obj.fit_score(space.encode(params)))
            assert got == want[tuple(params.items())], params

    @pytest.mark.parametrize("corpus_name", ["corpus_csv", "graded_corpus_csv"])
    def test_a_second_objective_stems_nothing_and_prepares_the_same_bits(self, corpus_name,
                                                                          request):
        # stem is memoised for the process: an objective built again on the
        # same corpus stems no word afresh, and prepares (bits and layout)
        # and scores exactly as the first did
        corpus = load_corpus(request.getfixturevalue(corpus_name))
        space = default_tuning_space()
        textpipe.stem.cache_clear()
        first = classifier_objective(corpus, space)
        misses = textpipe.stem.cache_info().misses
        assert misses > 0
        second = classifier_objective(corpus, space)
        assert textpipe.stem.cache_info().misses == misses
        preps = [inspect.getclosurevars(o.fit_score).nonlocals["prep"] for o in (first, second)]
        assert list(preps[0].variants) == list(preps[1].variants) == [False, True]
        for stemmed in (False, True):
            (*a, a_at_least), (*b, b_at_least) = (p.variants[stemmed] for p in preps)
            assert ([(x.dtype, x.shape, layout(x), x.tobytes()) for x in a]
                    == [(x.dtype, x.shape, layout(x), x.tobytes()) for x in b])
            assert a_at_least == b_at_least
        box = space.to_box()
        points = make_rng(23).uniform(box.lower, box.upper, size=(60, box.dims))
        assert {space.decode(x)["use_stemming"] for x in points} == {False, True}
        assert [first(x).hex() for x in points] == [second(x).hex() for x in points]

    def test_prefix_memo_is_bounded_read_only_and_dies_with_its_objective(self,
                                                                          graded_corpus_csv):
        # The memo holds whole prefixes alone: each key's term count is the
        # number of terms with df >= m for some m, never a count that
        # max_terms cuts inside a document frequency; its arrays cannot be
        # written; and it lives on the objective's own preparation, so
        # dropping the objective frees it (a cache on the class or a method
        # would keep it alive).
        space = default_tuning_space()
        box = space.to_box()
        obj = classifier_objective(load_corpus(graded_corpus_csv), space)
        prep = inspect.getclosurevars(obj.fit_score).nonlocals["prep"]
        at_least = {s: prep.variants[s][5] for s in (False, True)}
        # per variant, the fewest terms (10 or more) that are no whole prefix
        cut = {s: next(n for n in itertools.count(10) if n not in at_least[s])
               for s in (False, True)}
        assert all(at_least[s][m] > cut[s] for s in (False, True) for m in range(1, 6))
        for x in make_rng(22).uniform(box.lower, box.upper, size=(300, box.dims)):
            obj(x)
        for use_stemming in (False, True):
            for min_doc_freq in range(1, 6):
                for max_terms in (cut[use_stemming], 2000):
                    obj(space.encode({"min_doc_freq": min_doc_freq, "max_terms": max_terms,
                                      "use_stemming": use_stemming, "nb_smoothing": 1.0}))
        assert {(s, at_least[s][m]) for s in (False, True) for m in range(1, 6)} <= set(prep.wholes)
        assert all(n in at_least[s] for s, n in prep.wholes)
        for totals, test, _ in prep.wholes.values():
            for a in (totals, test):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 0.0
        ref = weakref.ref(prep)
        del obj, prep, totals, test, a
        gc.collect()
        assert ref() is None


# ---------------------------------------------------------------------------
# RNG derivation and runners
# ---------------------------------------------------------------------------

class TestChildRng:
    def test_deterministic(self):
        a = child_rng(7, 1, 2).random(5)
        b = child_rng(7, 1, 2).random(5)
        np.testing.assert_array_equal(a, b)

    def test_independent_streams(self):
        streams = {tuple(child_rng(7, mi, ri).random(4))
                   for mi in range(3) for ri in range(3)}
        assert len(streams) == 9


class TestRunners:
    def test_run_method_all_kinds(self):
        from foxbird.benchmarks import get_benchmark
        bench = get_benchmark("sphere")
        space = bench.space(3)
        for method in METHODS:
            res = run_method(method, bench, space, 10, 20, child_rng(0, 0, 0))
            assert math.isfinite(res.best_fitness)
            assert res.best_fitness >= 0.0

    def test_random_search_budget_and_monotone_history(self):
        from foxbird.benchmarks import get_benchmark
        bench = get_benchmark("sphere")
        space = bench.space(3)
        res = run_random_search(bench, space, 57, make_rng(0))
        assert res.evaluations == 57
        assert len(res.history) == 57
        assert all(a >= b for a, b in zip(res.history, res.history[1:]))
        assert res.history[-1] == res.best_fitness

    def test_random_search_maps_non_finite_to_plus_inf(self):
        from foxbird.benchmarks import get_benchmark
        bench = get_benchmark("sphere")
        calls = []

        def obj(x):
            calls.append(1)
            return float("-inf") if len(calls) == 5 else bench(x)

        res = run_random_search(obj, bench.space(3), 20, make_rng(0))
        assert math.isfinite(res.best_fitness)
        assert all(math.isfinite(f) for f in res.history)
        assert res.evaluations == len(calls) == 20

    def test_random_search_with_no_finite_value_keeps_the_first_sample(self):
        space = SearchSpace([-1.0, 0.0], [1.0, 3.0])
        res = run_random_search(lambda x: float("nan"), space, 5, make_rng(0))
        first = make_rng(0).uniform(space.lower, space.upper)
        assert np.array_equal(res.best_position, first)
        assert res.best_fitness == math.inf
        assert res.history == [math.inf] * 5
        assert res.evaluations == 5

    def test_random_search_draws_its_samples_in_one_call(self):
        # run_random_search draws every sample with one uniform call; that is
        # the stream of one call per sample only while numpy fills a
        # (budget, d) draw row by row, as it does today
        changed = ("numpy's draw stream changed: {budget} samples from one uniform call "
                   "no longer equal one call per sample at dims={dims}, so every "
                   "fixed-seed random-search result would change")
        for dims in range(1, 31):
            for seed in range(10):
                bounds = make_rng(1000 + seed).uniform(-50.0, 50.0, (2, dims))
                lower, upper = bounds.min(axis=0) - 1.0, bounds.max(axis=0)
                budget = 1 + seed * 7
                a, b = make_rng(seed), make_rng(seed)
                rows = [a.uniform(lower, upper) for _ in range(budget)]
                X = b.uniform(lower, upper, size=(budget, dims))
                message = changed.format(budget=budget, dims=dims)
                assert np.array(rows).tobytes() == X.tobytes(), message
                assert a.bit_generator.state == b.bit_generator.state, message

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tuning_runs_are_the_same_with_and_without_batch(self, corpus_csv, seed):
        # a lambda hides the objective's batch, so the runners score it one
        # row at a time; each side gets its own objective, so neither reads
        # the other's memo
        corpus = load_corpus(corpus_csv)
        space = default_tuning_space()
        box = space.to_box()

        def result_bytes(result):
            return (result.best_position.tobytes(), result.best_fitness.hex(),
                    [v.hex() for v in result.history], result.evaluations,
                    result.strategy_counts)

        runs = {"random": lambda obj: run_random_search(obj, box, 300, make_rng(seed)),
                "hraha": lambda obj: run_method("hraha", obj, box, 12, 8, child_rng(seed, 0, 0))}
        for name, run in runs.items():
            whole = classifier_objective(corpus, space)
            rows = classifier_objective(corpus, space)
            assert result_bytes(run(whole)) == result_bytes(run(lambda x: rows(x))), name

    @pytest.mark.parametrize("budget", [0, -3])
    def test_random_search_rejects_an_empty_budget(self, budget):
        from foxbird.benchmarks import get_benchmark
        bench = get_benchmark("sphere")
        with pytest.raises(ValueError, match="budget"):
            run_random_search(bench, bench.space(2), budget, make_rng(0))


# ---------------------------------------------------------------------------
# Experiments and reports
# ---------------------------------------------------------------------------

def small_benchmark_config(**over):
    cfg = {
        "task": {"kind": "benchmark", "function": "sphere", "dims": 3},
        "methods": ["hraha", "pso"],
        "budget": {"pop_size": 10, "iterations": 20},
        "seeds": {"count": 2, "master_seed": 0},
    }
    cfg.update(over)
    return cfg


class TestRunExperiment:
    def test_benchmark_task(self):
        report = run_experiment(parse_config(small_benchmark_config()))
        assert set(report.rows) == {"hraha", "pso"}
        assert report.columns == ["best_fitness"]
        assert report.seeds == [0, 1]
        for row in report.rows.values():
            assert row["best_fitness"] >= 0.0
        assert set(report.wall_times) == {"hraha", "pso"}

    def test_deterministic_rows(self):
        a = run_experiment(parse_config(small_benchmark_config()))
        b = run_experiment(parse_config(small_benchmark_config()))
        assert a.rows == b.rows

    def test_explicit_seed_list(self):
        report = run_experiment(parse_config(small_benchmark_config(seeds=[5, 9])))
        assert report.seeds == [5, 9]

    def test_parse_config_defaults(self):
        assert parse_config({"task": {"function": "sphere"}}) == Experiment(
            BenchmarkTask("sphere", 10), METHODS, 20, 50, (0,))
        assert parse_config({"task": {"kind": "classifier", "corpus": "c.csv"}}).task == \
            ClassifierTask("c.csv", "csv", 0.8, 0, default_tuning_space())

    def test_with_master_seed_keeps_the_seed_count(self):
        exp = parse_config(small_benchmark_config(seeds=[5, 9, 2]))
        assert exp.with_master_seed(7).seeds == (7, 8, 9)
        with pytest.raises(ValueError, match="seeds.master_seed"):
            exp.with_master_seed(-1)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_experiment(parse_config(small_benchmark_config(methods=["gradient_descent"])))

    def test_unknown_task_kind(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            run_experiment(parse_config({"task": {"kind": "regression"}}))

    def test_classifier_task(self, corpus_csv):
        cfg = {
            "task": {"kind": "classifier", "corpus": str(corpus_csv)},
            "methods": ["hraha"],
            "budget": {"pop_size": 8, "iterations": 5},
            "seeds": {"count": 1, "master_seed": 0},
        }
        report = run_experiment(parse_config(cfg))
        row = report.rows["hraha"]
        assert report.columns == ["best_fitness", "accuracy", "f_score"]
        assert 0.0 <= row["best_fitness"] <= 1.0
        assert row["f_score"] == pytest.approx(1.0 - row["best_fitness"], abs=1e-12)


class TestEmitReport:
    @staticmethod
    def sample_report():
        return TrialReport(
            columns=["best_fitness", "f_score"],
            rows={"hraha": {"best_fitness": 0.125, "f_score": 0.875},
                  "pso": {"best_fitness": 0.5, "f_score": 0.5}},
            seeds=[0, 1],
            wall_times={"hraha": 1.5, "pso": 0.25},
        )

    def test_csv(self):
        got = emit_report(self.sample_report(), "csv")
        lines = got.splitlines()
        assert lines[0] == "method,best_fitness,f_score"
        assert lines[1] == "hraha,0.125,0.875"
        assert lines[2] == "pso,0.5,0.5"

    def test_csv_full_float_precision(self):
        r = self.sample_report()
        r.rows["hraha"]["best_fitness"] = 1 / 3
        got = emit_report(r, "csv")
        assert repr(1 / 3) in got

    def test_timings_excluded_by_default(self):
        assert "wall_time" not in emit_report(self.sample_report(), "csv")
        assert "wall_time" not in emit_report(self.sample_report(), "json")

    def test_json_round_trip(self):
        r = self.sample_report()
        d = json.loads(emit_report(r, "json"))
        assert d == {"columns": r.columns, "rows": r.rows, "seeds": r.seeds}

    def test_text_table(self):
        got = emit_report(self.sample_report(), "text-table")
        lines = got.splitlines()
        assert lines[0].split() == ["method", "best_fitness", "f_score"]
        assert set(lines[1]) <= {"-", " "}
        assert "0.1250" in lines[2]
        # columns are aligned: every header field starts where its cells do
        assert lines[0].index("best_fitness") == lines[2].index("0.1250")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(self.sample_report(), "yaml")

    def test_empty_report(self):
        with pytest.raises(ValueError, match="empty report"):
            emit_report(TrialReport(columns=["x"], rows={}), "csv")
