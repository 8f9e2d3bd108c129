"""Exact fixed-seed results. The golden report rounds to 4 decimals, so a
change that moves a fitness in its last bits would pass it; these hashes of
the full-precision result would not. A change that alters fixed-seed results
on purpose must say so and re-record them."""

import hashlib
import json

import pytest

from conftest import make_synthetic_corpus
from foxbird.benchmarks import get_benchmark
from foxbird.cli import EXIT_OK, main
from foxbird.core import make_rng
from foxbird.harness import run_method

# 10-d problems, population 10, 50 iterations, seed 0
PINNED = {
    ("sphere", "hraha"): "d04a6d6e516c48482bcb07631ca587a4f6e9f7595ee07d578c0fc746923757e6",
    ("sphere", "rfo"): "bd9f342d2af0b4bda221ffc8b42ad8b85dd9d94fd7aa38c6660af8ee48f68364",
    ("sphere", "aha"): "4caf91f4b4fb5ad580605079231d1cdd13a851ea7ee8264b416a2a3863e1a549",
    ("sphere", "pso"): "695aba7e563df050e0e4e568e35dd812c7291e51117b9ad2f5919cd20314c310",
    ("rastrigin", "hraha"): "4ff2d88bb980cebf5303010cedefd69a4d7fe4239a9bba972e9a7c259e18a779",
    ("rastrigin", "rfo"): "c772abf1954255a753e3ecf8b118b4bcc29583f49317e36265864dbebd4ffe97",
    ("rastrigin", "aha"): "3438cc57960c7360dc676e303208815eb3f8db38db0d154933c7cecff92e2ec5",
    ("rastrigin", "pso"): "efc3a75dfbb70bb1c2c3d1c66556896d3d1deb109f106cd56682c617bada886d",
}


def fingerprint(result) -> str:
    payload = repr((repr(result.best_fitness), result.history, result.evaluations))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("function, method", sorted(PINNED))
def test_fixed_seed_result_is_pinned(function, method):
    bench = get_benchmark(function)
    result = run_method(method, bench, bench.space(10), 10, 50, make_rng(0))
    assert fingerprint(result) == PINNED[function, method]


# SHA-256 of best_position.tobytes() for the same runs: the hashes above do
# not see a best point that moves while its fitness stays put
PINNED_BEST_POSITION = {
    ("sphere", "hraha"): "dda1d31012e8f2b57dc8047d9355041ac58e6f06a7ddeec907d1ce5a79e131e3",
    ("sphere", "rfo"): "df3f896304787053d0f93fd7b3cb91f4681d72855daca607e71eeece545a522f",
    ("sphere", "aha"): "4e83fdca2fd7ab364401164269606f0e9b50f8bf7e32a0390f7ab7827d772bd6",
    ("sphere", "pso"): "e7e5a5e22b7416f0b5f1fcb3ff98c2d5e4841660eff87370c5fa2c625fa0fa7f",
    ("rastrigin", "hraha"): "39bfa8aa14a35fa408ea2715743113bd12eb303ad5535d47bda72e2da62f1c7b",
    ("rastrigin", "rfo"): "5f521527e81424f7bf18a3dea38cbb5c0816b00e4024572d08660942e317e82e",
    ("rastrigin", "aha"): "c37f1e0843c8f8690a4eb3f078eef07754cbb2e048d8eaa79c5dbf7b17cae7bd",
    ("rastrigin", "pso"): "ff41c7a3f413938f428a8e0a1220a4d473067f4ba532eaae15155007ffc7bcab",
}


@pytest.mark.parametrize("function, method", sorted(PINNED_BEST_POSITION))
def test_fixed_seed_best_position_is_pinned(function, method):
    bench = get_benchmark(function)
    result = run_method(method, bench, bench.space(10), 10, 50, make_rng(0))
    digest = hashlib.sha256(result.best_position.tobytes()).hexdigest()
    assert digest == PINNED_BEST_POSITION[function, method]


# report.json of a four-method classifier race: its accuracy and f_score
# columns score each method's best point. On 60 noisy documents the methods
# end on different plateaus; on the 200-document fixture corpus all four tie.
PINNED_CLASSIFIER_REPORT = "944d88b931fe88850ddd0eef071701eedaed6296d04bc2c8bee66a256ad1486c"


def test_classifier_report_is_pinned(tmp_path, capsys):
    corpus = make_synthetic_corpus(tmp_path / "corpus.csv", n_docs=60, noise=0.3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": {"kind": "classifier", "corpus": str(corpus)},
        "methods": ["hraha", "aha", "rfo", "pso"],
        "budget": {"pop_size": 8, "iterations": 10},
        "seeds": {"count": 2, "master_seed": 0},
    }))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    report = (tmp_path / "out" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PINNED_CLASSIFIER_REPORT
