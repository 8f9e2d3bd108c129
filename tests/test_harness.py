import csv
import itertools
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

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
from foxbird.metrics import accuracy, f_score

from conftest import make_synthetic_corpus
from test_metrics import f_score_reference


def train_nb_reference(X, labels, classes, smoothing):
    """Naive Bayes with a boolean row mask per class, each class summed on
    its own: the fit that the class tensor must reproduce bit for bit."""
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


def nb_cases(seed: int, n: int, n_feats=(1, 2, 3, 8, 9, 40, 300)):
    """Random non-negative count-like matrices, C- and F-ordered, with a
    label outside ``classes`` and classes of 0, 1 or more rows.

    Classes of unequal size pad the class tensor, which regroups numpy's
    pairwise sum of a single column."""
    rng = make_rng(seed)
    yield np.arange(12.0).reshape(4, 3), ["b", "a", "x", "b"], ["a", "b", "c"]
    for case in range(n):
        n_rows = int(rng.integers(1, 120))
        n_feat = int(rng.choice(n_feats))
        classes = [f"c{k}" for k in range(int(rng.integers(1, 7)))]
        labels = [f"c{k}" for k in rng.integers(0, len(classes) + 1, n_rows)]
        X = rng.exponential(1.0, (n_rows, n_feat)) * rng.integers(0, 3, (n_rows, n_feat))
        yield (np.asfortranarray(X) if case % 2 else X), labels, classes


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

    def test_malformed_jsonl_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "t", "label": "x"}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path, fmt="jsonl")

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
        # column; a single column is summed from the class tensor instead
        rng = make_rng(1)
        for X, labels, classes in itertools.chain(nb_cases(2, 150), nb_cases(3, 50, (1,))):
            class_rows, sizes = harness._class_rows(X, labels, classes)
            totals = harness._class_totals(class_rows, sizes)
            assert_same_bits([totals], [class_sums(X, labels, classes)])
            n_feat = X.shape[1]
            picks = [np.sort(rng.choice(n_feat, size=int(rng.integers(1, n_feat + 1)),
                                        replace=False)) for _ in range(3)]
            for cols in picks + [np.array([int(rng.integers(n_feat))])]:
                if len(cols) == 1:
                    selected = harness._class_totals(np.take(class_rows, cols, axis=2), sizes)
                else:
                    selected = np.take(totals, cols, axis=1)
                for smoothing in (0.01, 1.0, 5.0):
                    got = (harness._log_prior(sizes, X.shape[0]),
                           harness._nb_log_lik(selected, smoothing))
                    want = train_nb_reference(X[:, cols], labels, classes, smoothing)
                    assert_same_bits(got, want)


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
        # the stages a miss runs, called through module attributes: the NB
        # kernel and the class-code scorer once each. The label-list
        # adapters (train_nb, predict_nb and the two metrics, which
        # perfbench's trace wraps) are for other callers and never run.
        calls = Counter()
        stages = ("_fit_score", "_nb_log_lik", "_nb_codes", "train_nb", "predict_nb",
                  "accuracy_metric", "f_score_metric")
        for name in stages:
            def counted(*args, _fn=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(harness, name, counted)
        obj = classifier_objective(load_corpus(corpus_csv), default_tuning_space())
        x = default_tuning_space().encode({"min_doc_freq": 2, "max_terms": 100,
                                           "use_stemming": False, "nb_smoothing": 0.5})
        once = {"_fit_score": 1, "_nb_log_lik": 1, "_nb_codes": 1}
        obj(x)
        assert calls == once
        obj(x)
        assert calls == once

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
            df = textpipe.doc_frequencies(train, vocab)
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
            pred = predict_nb(X_test, classes, log_prior, log_lik)
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
        # corpus has document frequencies from 1 up, and the second space
        # caps max_terms below its vocabulary.
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
            n_w = textpipe.doc_frequencies(train, vocab)
            idf = np.log(len(train) / np.maximum(n_w, 1))
            X_train = textpipe.bow_vectorize(train, vocab) * idf
            X_test = textpipe.bow_vectorize(test, vocab) * idf
            log_prior, log_lik = train_nb(X_train, train_labels, classes,
                                          params["nb_smoothing"])
            pred = predict_nb(X_test, classes, log_prior, log_lik)
            return accuracy(pred, test_labels), f_score(pred, test_labels)

        default = default_tuning_space()
        capped = HyperparamSpace((
            HyperparamDim("min_doc_freq", "integer", 0, 5),
            HyperparamDim("max_terms", "integer", 0, 40),
            default.dims[2],
            default.dims[3],
        ))
        distinct = set()
        for space in (default, capped):
            obj = classifier_objective(corpus, space)
            for use_stemming in (False, True):
                n_vocab = len(textpipe.build_vocabulary(
                    [tokens[use_stemming][i] for i in corpus.train_idx]))
                assert n_vocab > 60
                for min_doc_freq in range(0, 6):
                    for max_terms in (0, 10, 11, 50, 500, n_vocab - 1, n_vocab,
                                      n_vocab + 1, 2000):
                        for nb_smoothing in (0.01, 1.0, 5.0):
                            x = space.encode({"min_doc_freq": min_doc_freq,
                                              "max_terms": max_terms,
                                              "use_stemming": use_stemming,
                                              "nb_smoothing": nb_smoothing})
                            got = obj.fit_score(x)
                            assert got == oracle(space.decode(x)), space.decode(x)
                            distinct.add(got)
        assert len(distinct) > 20  # the grid is not one flat plateau


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
