"""End-to-end acceptance checks.

Each test prints one CRITERION line (PASS/FAIL) so the suite doubles as a
human-readable checklist; the asserts make pytest enforce the same bars.
All thresholds and tolerances are pinned in-line.
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from foxbird import run
from foxbird.benchmarks import get_benchmark
from foxbird.core import init_population, make_rng
from foxbird.harness import (
    child_rng,
    classifier_objective,
    default_tuning_space,
    load_corpus,
    run_method,
    run_random_search,
)
from foxbird.hraha import (
    FLIGHT_KINDS,
    LOCAL_STRATEGIES,
    STRAT_MIGRATION,
    STRAT_MOVE_CLOSER,
    STRAT_NONE,
    STRAT_STAY,
    STRAT_TERRITORIAL,
    crossover,
    habitat_center,
    habitat_size,
    migrate_worst,
    mutate,
    stay_and_disguise,
)
from foxbird.kernels import attention, gelu, gru_step, gumbel_softmax_st, softmax_rows
from foxbird.metrics import bleu4, rouge_l
from foxbird.textpipe import Vocabulary, build_vocabulary, tf_idf

from test_kernels import (
    attention_oracle,
    gnn_block_oracle,
    gru_oracle,
    lstm_oracle,
    random_gru_weights,
    random_lstm_weights,
    softmax_rows_oracle,
)
from test_textpipe import tf_idf_oracle

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(criterion: int, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_1_convergence_sphere():
    bench = get_benchmark("sphere")
    space = bench.space(10)
    t0 = time.perf_counter()
    finals, never_worse = [], True
    for seed in range(100):
        rng = make_rng(seed)
        init = init_population(space, 30, make_rng(seed))
        initial_best = min(bench(m.position) for m in init.members)
        res = run(bench, space, 30, 500, rng)
        finals.append(res.best_fitness)
        never_worse &= res.best_fitness <= initial_best + 1e-15
    elapsed = time.perf_counter() - t0
    med = statistics.median(finals)
    ok = med <= 1e-2 and never_worse and elapsed < 60.0
    assert report(1, ok, f"median={med:.3e}, runtime={elapsed:.1f}s")


def test_criterion_2_comparative_rastrigin():
    bench = get_benchmark("rastrigin")
    space = bench.space(10)
    t0 = time.perf_counter()
    medians = {}
    for method in ("hraha", "aha", "rfo", "pso"):
        fits = []
        for seed in range(30):
            res = run_method(method, bench, space, 30, 500, make_rng(1000 + seed))
            fits.append(res.best_fitness)
        medians[method] = statistics.median(fits)
    elapsed = time.perf_counter() - t0
    bar = 1.1 * min(medians["aha"], medians["rfo"], medians["pso"])
    ok = medians["hraha"] <= bar and elapsed < 300.0
    detail = ", ".join(f"{m}={v:.2f}" for m, v in medians.items())
    assert report(2, ok, f"{detail}, bar={bar:.2f}, runtime={elapsed:.1f}s")


def test_criterion_3_regime_coverage():
    bench = get_benchmark("rastrigin")
    space = bench.space(5)
    res = run(bench, space, 30, 200, make_rng(0))
    counts = res.strategy_counts
    all_seen = all(counts[k] >= 1 for k in FLIGHT_KINDS + LOCAL_STRATEGIES)

    # 200 iterations x 30 members = 6000 delta draws; interval widths give
    # the binomial success probabilities per strategy
    n = 6000
    widths = {STRAT_NONE: 0.50, STRAT_STAY: 0.25, STRAT_TERRITORIAL: 0.10,
              STRAT_MIGRATION: 0.10, STRAT_MOVE_CLOSER: 0.05}
    within = True
    for strat, p in widths.items():
        mean, sigma = n * p, math.sqrt(n * p * (1 - p))
        within &= abs(counts[strat] - mean) <= 3 * sigma
    ok = all_seen and within
    tallies = ", ".join(f"{k}={counts[k]}" for k in LOCAL_STRATEGIES)
    assert report(3, ok, tallies)


def test_criterion_4_equation_endpoints():
    p1 = np.array([0.0, 2.0])
    p2 = np.array([2.0, 0.0])
    checks = []

    # crossover endpoints return the exact parents
    checks.append(np.array_equal(crossover(p1, p2, 1.0), p1))
    checks.append(np.array_equal(crossover(p1, p2, 0.0), p2))

    # mutation with a full step lands exactly on the habitat center
    C = habitat_center(p1, p2)
    checks.append(np.allclose(mutate(np.array([9.0, -9.0]), C, 1.0), C, atol=0))

    # habitat worked example: center (1,1), size 4
    checks.append(np.allclose(C, [1.0, 1.0], atol=0))
    checks.append(habitat_size(p1, p2, C) == pytest.approx(4.0, abs=1e-12))

    # reinitialization identity: x = lower + r * (upper - lower)
    bench = get_benchmark("sphere")
    space = bench.space(3)
    rng = make_rng(5)
    pop = init_population(space, 6, rng)
    for m in pop.members:
        m.fitness = bench(m.position)
    w = pop.worst_index
    migrated, r = migrate_worst(pop, space, rng, last_migration=-100,
                                current_iter=100, M=12, obj=bench)
    expect = space.lower + r * (space.upper - space.lower)
    checks.append(migrated and np.allclose(pop.members[w].position, expect,
                                           atol=1e-12))

    # local-hiding hand case: nr=1, angles (pi/2, 0, pi/2) offset x by (1,2,1)
    big = get_benchmark("ackley").space(3)
    x = np.array([0.0, 0.0, 0.0])
    got = stay_and_disguise(x, 1.0, np.array([math.pi / 2, 0.0, math.pi / 2]), big)
    checks.append(np.allclose(got, [1.0, 2.0, 1.0], atol=1e-12))

    ok = all(checks)
    assert report(4, ok, f"{sum(checks)}/{len(checks)} identities")


def test_criterion_5_tfidf_oracle():
    corpora = [
        [["a", "b", "a"], ["b", "c"], ["a", "c", "c", "d"], ["d"]],
        [["x"], ["x"], ["x"]],  # term everywhere -> column of zeros
        [["q", "q", "q", "r"], ["r", "s"], ["s", "q"], ["r"], ["q", "s"],
         ["r", "r"], ["s"], ["q"], ["r", "s", "q"], ["s", "s"]],
        [["only"], ["only", "two"]],
        [["m", "n", "o"], ["n", "o", "p"], ["o", "p", "m"], ["p", "m", "n"],
         ["m"], ["n"], ["o"]],
    ]
    max_err = 0.0
    zero_col_seen = False
    for corpus in corpora:
        assert len(corpus) <= 10
        vocab = build_vocabulary(corpus)
        got = tf_idf(corpus, vocab).values
        want = tf_idf_oracle(corpus, vocab.terms)
        max_err = max(max_err, float(np.max(np.abs(got - want))))
        for j in range(len(vocab)):
            if all(vocab.terms[j] in doc for doc in corpus):
                zero_col_seen = True
                max_err = max(max_err, float(np.max(np.abs(got[:, j]))))
    ok = max_err <= 1e-12 and zero_col_seen
    assert report(5, ok, f"max_err={max_err:.2e}")


def test_criterion_6_kernel_identities():
    checks = []

    # gelu(a) - gelu(-a) = a on a 2001-point grid
    grid = np.linspace(-10.0, 10.0, 2001)
    checks.append(float(np.max(np.abs((gelu(grid) - gelu(-grid)) - grid))) <= 1e-6)

    # attention weight rows sum to one
    rng = make_rng(0)
    qu, ke = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
    w = softmax_rows(qu @ ke.T / math.sqrt(4))
    checks.append(float(np.max(np.abs(w.sum(axis=1) - 1.0))) <= 1e-9)

    # GRU output bracketed by previous state and candidate
    bracketed = True
    for _ in range(100):
        gw = random_gru_weights(rng, 3, 4)
        x, h_prev = rng.standard_normal(3), rng.standard_normal(4)
        _, _, _, h_tilde = gru_oracle(x, h_prev, gw)
        h = gru_step(x, h_prev, gw)
        lo = np.minimum(h_prev, h_tilde) - 1e-12
        hi = np.maximum(h_prev, h_tilde) + 1e-12
        bracketed &= bool(np.all(h >= lo) and np.all(h <= hi))
    checks.append(bracketed)

    # straight-through hard samples are exactly one-hot over 1e5 draws
    logits = np.array([0.2, -0.3, 0.9, 0.0])
    one_hot = True
    for _ in range(100_000):
        _, hard = gumbel_softmax_st(logits, 0.7, rng)
        one_hot &= hard.sum() == 1.0 and np.count_nonzero(hard) == 1
    checks.append(one_hot)

    # every kernel matches its explicit-loop oracle on 50 random small shapes
    from foxbird.kernels import GnnWeights, gnn_block, lstm_step

    max_err = 0.0
    for _ in range(50):
        rows, d = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        m = rng.standard_normal((rows, d))
        max_err = max(max_err, float(np.max(np.abs(
            softmax_rows(m) - softmax_rows_oracle(m)))))
        ke = rng.standard_normal((int(rng.integers(1, 6)), d))
        va = rng.standard_normal((ke.shape[0], int(rng.integers(1, 5))))
        max_err = max(max_err, float(np.max(np.abs(
            attention(m, ke, va) - attention_oracle(m, ke, va)))))
        n_in, n_h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        gw = random_gru_weights(rng, n_in, n_h)
        x, h = rng.standard_normal(n_in), rng.standard_normal(n_h)
        max_err = max(max_err, float(np.max(np.abs(
            gru_step(x, h, gw) - gru_oracle(x, h, gw)[0]))))
        lw = random_lstm_weights(rng, n_in, n_h)
        s = rng.standard_normal(n_h)
        got_h, got_s = lstm_step(x, h, s, lw)
        want_h, want_s = lstm_oracle(x, h, s, lw)[:2]
        max_err = max(max_err, float(np.max(np.abs(got_h - want_h))),
                      float(np.max(np.abs(got_s - want_s))))
        nodes = int(rng.integers(1, 5))
        adj = (rng.random((nodes, nodes)) < 0.5).astype(float) + np.eye(nodes)
        feats = rng.standard_normal((nodes, d))
        wg = GnnWeights(rng.standard_normal((d, 3)), rng.standard_normal(3))
        max_err = max(max_err, float(np.max(np.abs(
            gnn_block(adj, feats, wg) - gnn_block_oracle(adj, feats, wg)))))
    checks.append(max_err <= 1e-12)

    ok = all(checks)
    assert report(6, ok, f"{sum(checks)}/{len(checks)} identities, "
                         f"oracle_err={max_err:.2e}")


def test_criterion_7_metric_fixed_points():
    ident = "the cat sat on the mat".split()
    checks = [
        bleu4(ident, [ident]) == pytest.approx(1.0, abs=1e-12),
        rouge_l(ident, ident) == pytest.approx(1.0, abs=1e-12),
        # all n-grams matched, candidate 3 vs reference 4: BLEU = exp(1 - 4/3)
        bleu4(["a", "b", "c"], [["a", "b", "c", "d"]])
        == pytest.approx(0.7165, abs=1e-4),
        # LCS 6 over lengths 7 and 7: F = 6/7
        rouge_l("the cat sat on the mat x".split(),
                "the cat sat on the mat y".split())
        == pytest.approx(6 / 7, abs=1e-4),
    ]
    ok = all(checks)
    assert report(7, ok, f"{sum(checks)}/{len(checks)} fixed points")


def test_criterion_8_tuning_end_to_end(corpus_csv):
    corpus = load_corpus(corpus_csv)
    hspace = default_tuning_space()
    obj = classifier_objective(corpus, hspace)
    box = hspace.to_box()
    t0 = time.perf_counter()
    budget = 20 * 30  # the nominal configuration: population 20, 30 iterations
    hraha_f, random_f = [], []
    for seed in range(10):
        res = run(obj, box, 20, 30, child_rng(seed, 0, 0))
        hraha_f.append(1.0 - res.best_fitness)
        rs = run_random_search(obj, box, budget, child_rng(seed, 1, 0))
        random_f.append(1.0 - rs.best_fitness)
    elapsed = time.perf_counter() - t0
    med_h = statistics.median(hraha_f)
    med_r = statistics.median(random_f)
    ok = med_h >= med_r and elapsed < 120.0
    assert report(8, ok, f"hraha_macro_f={med_h:.4f}, random={med_r:.4f}, "
                         f"runtime={elapsed:.1f}s")


def test_criterion_9_reproducible_cli_reports(tmp_path):
    from foxbird.cli import main

    cfg = {
        "task": {"kind": "benchmark", "function": "rastrigin", "dims": 4},
        "methods": ["hraha", "aha", "rfo", "pso"],
        "budget": {"pop_size": 10, "iterations": 20},
        "seeds": {"count": 2, "master_seed": 7},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["run", "--config", str(cfg_path), "--out", str(out1)])
    code2 = main(["run", "--config", str(cfg_path), "--out", str(out2)])
    csv1 = (out1 / "report.csv").read_bytes()
    csv2 = (out2 / "report.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and csv1 == csv2
    assert report(9, ok, f"{len(csv1)} bytes")


def test_criterion_10_report_shape_golden(tmp_path):
    from foxbird.cli import main

    cfg = {
        "task": {"kind": "benchmark", "function": "sphere", "dims": 3},
        "methods": ["hraha", "aha", "rfo", "pso"],
        "budget": {"pop_size": 10, "iterations": 20},
        "seeds": {"count": 2, "master_seed": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    got = (out / "report.txt").read_text()
    want = (GOLDEN_DIR / "report.txt").read_text()
    lines = got.splitlines()
    structural = (len(lines) == 6  # header, rule, one row per method
                  and lines[0].split()[0] == "method"
                  and [l.split()[0] for l in lines[2:]] == ["hraha", "aha",
                                                            "rfo", "pso"])
    ok = code == 0 and structural and got == want
    assert report(10, ok, "golden match" if got == want else "golden mismatch")
