"""Exact fixed-seed results. The golden report rounds to 4 decimals, so a
change that moves a fitness in its last bits would pass it; these hashes of
the full-precision result would not. A change that alters fixed-seed results
on purpose must say so and re-record them."""

import hashlib

import pytest

from foxbird.benchmarks import get_benchmark
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
