import hashlib
import json
import math
import shutil

import pytest

from foxbird.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


def write_config(path, **over):
    cfg = {
        "task": {"kind": "benchmark", "function": "sphere", "dims": 3},
        "methods": ["hraha", "pso"],
        "budget": {"pop_size": 10, "iterations": 15},
        "seeds": {"count": 2, "master_seed": 0},
    }
    cfg.update(over)
    path.write_text(json.dumps(cfg))
    return path


# the default tuning space, written out as a config's space section
SPACE = [
    {"name": "min_doc_freq", "kind": "integer", "lo": 1, "hi": 5},
    {"name": "max_terms", "kind": "integer", "lo": 10, "hi": 2000},
    {"name": "use_stemming", "kind": "categorical", "choices": [False, True]},
    {"name": "nb_smoothing", "kind": "continuous", "lo": 0.01, "hi": 5.0},
]
# test_bad_field_is_usage_error puts a real corpus at this path, so a config
# the parser wrongly accepts runs instead of failing on a missing file
CLASSIFIER = {"kind": "classifier", "corpus": "corpus.csv"}


def categorical(name, choices):
    return {"name": name, "kind": "categorical", "choices": choices}


class TestRun:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in ("report.csv", "report.json", "report.txt", "timings.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "hraha" in stdout and "pso" in stdout

    def test_report_csv_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_no_wall_times_in_reports(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert "wall_time" not in (out / "report.csv").read_text()
        assert "wall_time" not in (out / "report.json").read_text()
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"hraha", "pso"}

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--seed", "99", "--out", str(out2)])
        assert (out1 / "report.csv").read_text() != (out2 / "report.csv").read_text()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_integer_past_the_digit_limit_is_data_error(self, tmp_path, capsys):
        # json.load raises a plain ValueError for an int literal over 4,300 digits
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"task": {"kind": "benchmark", "function": "sphere", "dims": '
                       + "1" * 5000 + "}}")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    def test_split_with_no_test_document_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "ten.csv"
        corpus.write_text("id,text,label\n"
                          + "\n".join(f"d{i},t,{'ab'[i % 2]}" for i in range(10)))
        cfg = write_config(tmp_path / "cfg.json", methods=["pso"], task={
            "kind": "classifier", "corpus": str(corpus), "split_ratio": 0.95})
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: split_ratio 0.95 ")

    def test_space_section_as_the_default(self, tmp_path, corpus_csv):
        out = {}
        for name, space in (("default", None), ("explicit", SPACE)):
            over = {"task": {"kind": "classifier", "corpus": str(corpus_csv)},
                    "methods": ["pso"], "budget": {"pop_size": 4, "iterations": 1},
                    "seeds": [0]}
            if space is not None:
                over["space"] = space
            cfg = write_config(tmp_path / f"{name}.json", **over)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
            out[name] = (tmp_path / name / "report.csv").read_bytes()
        assert out["explicit"] == out["default"]

    def test_bad_config_contents(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           task={"kind": "benchmark", "function": "himmelblau"})
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "task.function" in capsys.readouterr().err

    @pytest.mark.parametrize("field, over", [
        ("budget.pop_size", {"budget": {"pop_size": 2, "iterations": 15}}),
        ("task.dims", {"task": {"kind": "benchmark", "function": "sphere", "dims": 0}}),
        ("methods", {"methods": ["hraha", "annealing"]}),
        ("methods", {"methods": []}),
        ("methods", {"methods": "pso"}),
        ("methods", {"methods": ["pso", "pso"]}),
        ("budget.iterations", {"budget": {"pop_size": 10, "iterations": 0}}),
        ("budget.iterations", {"methods": ["pso"], "budget": {"pop_size": 10, "iterations": -2}}),
        ("seeds.count", {"seeds": {"count": 0}}),
        ("seeds", {"seeds": []}),
        ("space[0].kind", {"task": CLASSIFIER, "space": [
            {"name": "min_doc_freq", "lo": 1, "hi": 5}, *SPACE[1:]]}),
        ("space[1].name", {"task": CLASSIFIER, "space": [
            SPACE[0], {**SPACE[1], "name": "max_features"}, *SPACE[2:]]}),
        ("space[1].name", {"task": CLASSIFIER, "space": [SPACE[0], SPACE[0], *SPACE[1:]]}),
        ("space[3].lo", {"task": CLASSIFIER, "space": [
            *SPACE[:3], {**SPACE[3], "lo": 5.0, "hi": 0.01}]}),
        ("space[0].hi", {"task": CLASSIFIER, "space": [
            {**SPACE[0], "hi": "five"}, *SPACE[1:]]}),
        ("space[2].choices", {"task": CLASSIFIER, "space": [
            *SPACE[:2], {"name": "use_stemming", "kind": "categorical"}, SPACE[3]]}),
        ("space", {"task": CLASSIFIER, "space": SPACE[:3]}),
        ("space", {"task": CLASSIFIER, "space": {"min_doc_freq": [1, 5]}}),
        ("task.split_seed", {"task": {**CLASSIFIER, "split_seed": "abc"}}),
        ("task.split_seed", {"task": {**CLASSIFIER, "split_seed": -1}}),
        ("task.split_ratio", {"task": {**CLASSIFIER, "split_ratio": "x"}}),
        ("task.split_ratio", {"task": {**CLASSIFIER, "split_ratio": 2}}),
        ("task.split_ratio", {"task": {**CLASSIFIER, "split_ratio": math.nan}}),
        ("task.format", {"task": {**CLASSIFIER, "format": "tsv"}}),
        ("task.corpus", {"task": {"kind": "classifier", "corpus": 3}}),
        ("task.function", {"task": {"kind": "benchmark", "function": ["sphere"]}}),
        ("task.dims", {"task": {"kind": "benchmark", "function": "sphere", "dims": 2.7}}),
        ("budget.pop_size", {"budget": {"pop_size": 4.9, "iterations": 15}}),
        ("budget.iterations", {"budget": {"pop_size": 10, "iterations": True}}),
        ("seeds[0]", {"seeds": ["1"]}),
        ("seeds", {"seeds": "abc"}),
        ("seeds", {"seeds": 7}),
        ("seeds.master_seed", {"seeds": {"master_seed": -1}}),
        ("space[0].lo", {"task": CLASSIFIER, "space": [{**SPACE[0], "lo": "1"}, *SPACE[1:]]}),
        # an integer too large for a float
        ("space[0].lo", {"task": CLASSIFIER, "space": [{**SPACE[0], "lo": -10**400}, *SPACE[1:]]}),
        ("task.split_ratio", {"task": {**CLASSIFIER, "split_ratio": 10**400}}),
        # a key nothing reads, which would leave its default in force
        ("budget.pop-size", {"budget": {"pop-size": 4, "iterations": 15}}),
        ("seed", {"seed": 3}),
        ("space", {"space": SPACE}),
        ("task.corpus", {"task": {"kind": "benchmark", "function": "sphere", "corpus": "c.csv"}}),
        ("task.dims", {"task": {**CLASSIFIER, "dims": 3}}),
        ("seeds.cuont", {"seeds": {"cuont": 3}}),
        ("space[1].choices", {"task": CLASSIFIER, "space": [
            SPACE[0], {**SPACE[1], "choices": [10, 20]}, *SPACE[2:]]}),
        ("space[2].lo", {"task": CLASSIFIER, "space": [*SPACE[:2], {**SPACE[2], "lo": 0}, SPACE[3]]}),
        # categorical choices the objective cannot read or hash
        ("space[2].choices", {"task": CLASSIFIER, "space": [
            *SPACE[:2], categorical("use_stemming", [[0], [1]]), SPACE[3]]}),
        ("space[2].choices", {"task": CLASSIFIER, "space": [
            *SPACE[:2], categorical("use_stemming", ["false"]), SPACE[3]]}),
        ("space[1].choices", {"task": CLASSIFIER, "space": [
            SPACE[0], categorical("max_terms", [{"a": 1}]), *SPACE[2:]]}),
        # json.dumps writes inf as Infinity, which json.load reads back as 1e400 would be
        ("space[1].choices", {"task": CLASSIFIER, "space": [
            SPACE[0], categorical("max_terms", [math.inf]), *SPACE[2:]]}),
        ("space[3].choices", {"task": CLASSIFIER, "space": [
            *SPACE[:3], categorical("nb_smoothing", ["x", "y"])]}),
        ("space[3].choices", {"task": CLASSIFIER, "space": [
            *SPACE[:3], categorical("nb_smoothing", [None])]}),
        ("space[0].choices", {"task": CLASSIFIER, "space": [
            categorical("min_doc_freq", [2, None]), *SPACE[1:]]}),
    ])
    def test_bad_field_is_usage_error(self, tmp_path, capsys, monkeypatch, corpus_csv,
                                      field, over):
        shutil.copy(corpus_csv, tmp_path / "corpus.csv")
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", **over)
        out = tmp_path / "o"
        # --seed replaces a valid config's seeds, so it cannot rescue an invalid config
        for seed in ([], ["--seed", "5"]):
            code = main(["run", "--config", str(cfg), "--out", str(out), *seed])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: {field}:")
            assert not out.exists()

    def test_config_not_an_object_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"task": {"kind": "benchmark", "function": "sphere"}}]))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: config:")

    @pytest.mark.parametrize("seeds", [{"count": 3, "master_seed": 4}, [9, 2, 30]])
    def test_seed_override_keeps_the_seed_count(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path / "cfg.json", methods=["pso"], seeds=seeds)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["seeds"] == [7, 8, 9]
        code = main(["run", "--config", str(cfg), "--seed", "-1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: seeds.master_seed:")


class TestBench:
    def test_runs(self, capsys):
        code = main(["bench", "--function", "sphere", "--dims", "3",
                     "--method", "pso", "--pop-size", "10", "--iters", "20"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "best_fitness=" in out
        assert "evaluations=" in out

    @pytest.mark.parametrize("field, flag, value", [
        ("budget.pop_size", "--pop-size", "2"),
        ("task.dims", "--dims", "0"),
        ("budget.iterations", "--iters", "0"),
        ("seeds[0]", "--seed", "-1"),
    ])
    def test_bad_argument_is_usage_error(self, capsys, field, flag, value):
        code = main(["bench", "--function", "sphere", flag, value])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: {field}:")

    def test_unknown_function_is_usage_error(self, capsys):
        assert main(["bench", "--function", "beale"]) == EXIT_USAGE

    def test_unknown_method_is_usage_error(self, capsys):
        code = main(["bench", "--function", "sphere", "--method", "annealing"])
        assert code == EXIT_USAGE


class TestTfidf:
    def test_vectorizes_corpus(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "m.csv"
        code = main(["tfidf", "--input", str(corpus_csv), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("id,")
        assert len(lines) == 201  # header + 200 documents

    def test_output_is_pinned(self, tmp_path, corpus_csv, capsys):
        # sha256 of the matrix file for the synthetic corpus; any change to
        # cleaning, stemming, the vocabulary or the weighting moves it
        out = tmp_path / "m.csv"
        code = main(["tfidf", "--input", str(corpus_csv), "--out", str(out),
                     "--min-doc-freq", "2", "--max-terms", "300"])
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "07897c7a8fe055bf984e7c92bb2ad9a03d465260fa5a71d1dd01fea40815041f"

    @pytest.mark.parametrize("flag, value", [
        ("--min-doc-freq", "0"),
        ("--min-doc-freq", "-2"),
        ("--max-terms", "0"),
        ("--max-terms", "-5"),
    ])
    def test_bad_flag_is_usage_error(self, tmp_path, corpus_csv, capsys, flag, value):
        out = tmp_path / "m.csv"
        code = main(["tfidf", "--input", str(corpus_csv), "--out", str(out), flag, value])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: {flag}:")
        assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        code = main(["tfidf", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA

    def test_malformed_corpus(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,text\na,hello\n")
        code = main(["tfidf", "--input", str(bad), "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("fmt, text", [
        ("csv", "id,text,label\n"),
        ("jsonl", "\n  \n\n"),
    ], ids=["csv", "jsonl"])
    def test_empty_corpus_is_data_error(self, tmp_path, capsys, fmt, text):
        empty = tmp_path / f"empty.{fmt}"
        empty.write_text(text)
        out = tmp_path / "m.csv"
        code = main(["tfidf", "--input", str(empty), "--format", fmt, "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: empty corpus: no documents in {empty}\n"
        assert not out.exists()

    def test_jsonl_integer_past_the_digit_limit_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": ' + "1" * 5000 + ', "text": "hello", "label": "a"}\n')
        code = main(["tfidf", "--input", str(bad), "--format", "jsonl",
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert "malformed row at line 1" in capsys.readouterr().err


class TestMetrics:
    def test_perfect_pair(self, tmp_path, capsys):
        cand = tmp_path / "c.txt"
        ref = tmp_path / "r.txt"
        cand.write_text("the cat sat on the mat\n")
        ref.write_text("the cat sat on the mat\n")
        assert main(["metrics", "--cand", str(cand), "--ref", str(ref)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "bleu4_mean=1.0000" in out
        assert "rouge_l_mean=1.0000" in out

    def test_line_count_mismatch(self, tmp_path, capsys):
        cand = tmp_path / "c.txt"
        ref = tmp_path / "r.txt"
        cand.write_text("a b\nc d\n")
        ref.write_text("a b\n")
        assert main(["metrics", "--cand", str(cand), "--ref", str(ref)]) == EXIT_DATA

    def test_empty_reference(self, tmp_path):
        cand = tmp_path / "c.txt"
        ref = tmp_path / "r.txt"
        cand.write_text("a\n")
        ref.write_text("\n")
        assert main(["metrics", "--cand", str(cand), "--ref", str(ref)]) == EXIT_DATA


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["optimize"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["run", "--out", "x"]) == EXIT_USAGE
