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

# (function, method, dims, population, iterations), seed 0. Population 41
# makes move-closer replace two members, 5 dims leave territorial foraging an
# unpaired trailing coordinate, and at 1 and 2 dims diagonal flight moves
# along every axis.
PINNED = {
    ("sphere", "hraha", 10, 10, 50): "d04a6d6e516c48482bcb07631ca587a4f6e9f7595ee07d578c0fc746923757e6",
    ("sphere", "rfo", 10, 10, 50): "bd9f342d2af0b4bda221ffc8b42ad8b85dd9d94fd7aa38c6660af8ee48f68364",
    ("sphere", "aha", 10, 10, 50): "4caf91f4b4fb5ad580605079231d1cdd13a851ea7ee8264b416a2a3863e1a549",
    ("sphere", "pso", 10, 10, 50): "695aba7e563df050e0e4e568e35dd812c7291e51117b9ad2f5919cd20314c310",
    ("rastrigin", "hraha", 10, 10, 50): "4ff2d88bb980cebf5303010cedefd69a4d7fe4239a9bba972e9a7c259e18a779",
    ("rastrigin", "rfo", 10, 10, 50): "c772abf1954255a753e3ecf8b118b4bcc29583f49317e36265864dbebd4ffe97",
    ("rastrigin", "aha", 10, 10, 50): "3438cc57960c7360dc676e303208815eb3f8db38db0d154933c7cecff92e2ec5",
    ("rastrigin", "pso", 10, 10, 50): "efc3a75dfbb70bb1c2c3d1c66556896d3d1deb109f106cd56682c617bada886d",
    ("sphere", "hraha", 5, 41, 30): "be71fea822bd2f4b8710d09fb3d796af8536589ca9c374d5e7b09a546582ac73",
    ("sphere", "rfo", 5, 41, 30): "47c0c680be929e3bd7d038b9222f9a7bd79e80b51abb33ba657c033631146697",
    ("sphere", "aha", 5, 41, 30): "6472278a1ab41329b31ab04dd7031bc9f9d53b18877ff01b17b5e7fa18fce00c",
    ("sphere", "pso", 5, 41, 30): "cd0a192d5af3147fd25e1aebddee3e8bd3080b5a17cb12d88b7b0aed3b84c03a",
    ("rastrigin", "hraha", 5, 41, 30): "ca71683a3def5dfe4561ce24a14de8924cda7bced7f8f6df91f932b1fe919976",
    ("rastrigin", "rfo", 5, 41, 30): "adc055a48fba6149d72d588f83d47987ee4f732095cd37e99761068c9f3760aa",
    ("rastrigin", "aha", 5, 41, 30): "d002de606cf0492a631a0ae7003366ca44749179f353ec4a0a9fd9aa1edda5c0",
    ("rastrigin", "pso", 5, 41, 30): "bfae47d09485de69c6c20a79633473942f7f2cbf1df7e1a682a8c80571395eb1",
    ("sphere", "hraha", 1, 4, 30): "c34f3cd33db8ddad2b247535377da1fe5b5d5fbddae45760817f8481ba1c29fe",
    ("sphere", "rfo", 1, 4, 30): "39b020c2791c4084cdc0223fcf34eb6be6345bb1edfe7e4e9008ab68d95fcf78",
    ("sphere", "aha", 1, 4, 30): "f720bd2cf19e2c202a3e31784fc87b2cc70ae82f48ef3f1c1d9e786593ec90fe",
    ("sphere", "pso", 1, 4, 30): "ab0b5d64d39dddd6dbdca08f9c6aab4b032490f731ddc550a39837d8b44fb2c0",
    ("rastrigin", "hraha", 1, 4, 30): "a2b6cca1519c15f6e227b72139623ff87add0d37dc5dee8a76696cd5aed12605",
    ("rastrigin", "rfo", 1, 4, 30): "81e427f7a0010eb5947010b248222d9b8bdde1651a7a48cd1a302fb9a4e5f652",
    ("rastrigin", "aha", 1, 4, 30): "9e7419a8a4e5e6c891d387e962dab2099cbd7d7bc76c26e6b0fe54ba61640ec1",
    ("rastrigin", "pso", 1, 4, 30): "0fbb510bb3e1b579452fe521d9e13bd7ca7055fbdd7ed4b8316b886a48c0378e",
    ("sphere", "hraha", 2, 6, 30): "62ea4d24d0f6173f7f756a9023af958be9572f0acb3c5db5e62c5d6c2665d4de",
    ("sphere", "rfo", 2, 6, 30): "7d99b6f24d83f5e6825ccc0166d7e68d42416933643d87b5387ee47f284f4364",
    ("sphere", "aha", 2, 6, 30): "ba8d3f879b7855873970db23156d614d76ce5ec023ca66d88731cf69ff257a27",
    ("sphere", "pso", 2, 6, 30): "28b92a71642c5ee3a2f98ade7b824c866515e8e7f7cc048de6ee66735adb11e2",
    ("rastrigin", "hraha", 2, 6, 30): "1a6d6e736ca55c5739ac37c21f787c2eefd659cfe7503177519fcd6c6ff1df5f",
    ("rastrigin", "rfo", 2, 6, 30): "0eaa5afa2a6314227302cdaa2c3373a46504e10825b382832d766d3ccdb1103c",
    ("rastrigin", "aha", 2, 6, 30): "077f52bdaf0037889a83b78a698e6b3b1aa00850a6e965626bdd00d11ca28b0b",
    ("rastrigin", "pso", 2, 6, 30): "3a900dc275dce22864b56c5200b69d9eb21c58dd8df2b3400404dd6152341664",
}


def pin_id(key) -> str:
    function, method, dims, pop_size, iterations = key
    if (dims, pop_size, iterations) == (10, 10, 50):
        return f"{function}-{method}"
    return f"{function}-{method}-{dims}d-pop{pop_size}"


def pinned_run(key):
    function, method, dims, pop_size, iterations = key
    bench = get_benchmark(function)
    return run_method(method, bench, bench.space(dims), pop_size, iterations, make_rng(0))


def fingerprint(result) -> str:
    payload = repr((repr(result.best_fitness), result.history, result.evaluations))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED), ids=pin_id)
def test_fixed_seed_result_is_pinned(key):
    assert fingerprint(pinned_run(key)) == PINNED[key]


# SHA-256 of best_position.tobytes() for the same runs: the hashes above do
# not see a best point that moves while its fitness stays put
PINNED_BEST_POSITION = {
    ("sphere", "hraha", 10, 10, 50): "dda1d31012e8f2b57dc8047d9355041ac58e6f06a7ddeec907d1ce5a79e131e3",
    ("sphere", "rfo", 10, 10, 50): "df3f896304787053d0f93fd7b3cb91f4681d72855daca607e71eeece545a522f",
    ("sphere", "aha", 10, 10, 50): "4e83fdca2fd7ab364401164269606f0e9b50f8bf7e32a0390f7ab7827d772bd6",
    ("sphere", "pso", 10, 10, 50): "e7e5a5e22b7416f0b5f1fcb3ff98c2d5e4841660eff87370c5fa2c625fa0fa7f",
    ("rastrigin", "hraha", 10, 10, 50): "39bfa8aa14a35fa408ea2715743113bd12eb303ad5535d47bda72e2da62f1c7b",
    ("rastrigin", "rfo", 10, 10, 50): "5f521527e81424f7bf18a3dea38cbb5c0816b00e4024572d08660942e317e82e",
    ("rastrigin", "aha", 10, 10, 50): "c37f1e0843c8f8690a4eb3f078eef07754cbb2e048d8eaa79c5dbf7b17cae7bd",
    ("rastrigin", "pso", 10, 10, 50): "ff41c7a3f413938f428a8e0a1220a4d473067f4ba532eaae15155007ffc7bcab",
    ("sphere", "hraha", 5, 41, 30): "955b9883cf634c95af5712ecb6154eae05106d145014193f8a95d26cd402c5ac",
    ("sphere", "rfo", 5, 41, 30): "ba82b63328ec3eb596cfe7e60043c72d5d2aa6f58293007af2b765e47f06f43e",
    ("sphere", "aha", 5, 41, 30): "f2fe031fdc0ee0cda46260b5605f61f5edb19030b836f5c4e40c4efd6047fe23",
    ("sphere", "pso", 5, 41, 30): "ee2a96a504eb1191b472e3a0f900c2e24627dbf0a7c8ce26dca2815d883eeb22",
    ("rastrigin", "hraha", 5, 41, 30): "dfa8895d753a5d4625367f5c030a498499e15458b8ec5c78a313c35df137e2ca",
    ("rastrigin", "rfo", 5, 41, 30): "56cb823f08aaec1d2c0658bdb3b8fe9eeaa09502b1960092c73181b79c4c6881",
    ("rastrigin", "aha", 5, 41, 30): "3a4e8fa4a90e0d4470a2723ac44a35a8888780ae18ff1256e51c57658cdba03a",
    ("rastrigin", "pso", 5, 41, 30): "3417383ccb4d440a6a984996906212fe207b657ca6d71716366c8a7d26836ce2",
    ("sphere", "hraha", 1, 4, 30): "ab6b5e74d87aebb3748a7e1a1e2eb537ed4ac7a049d1dfbce4553d7034379e96",
    ("sphere", "rfo", 1, 4, 30): "9dc89b06019c7f3482832a993acea98b067b0d1ee34d15c29f84adef5a5e3e46",
    ("sphere", "aha", 1, 4, 30): "25f74962246f57c60cbf6f44eb0bcda98e1c32e3b5fb1d402d0be973934d39fb",
    ("sphere", "pso", 1, 4, 30): "b0a3634cf83d55e8d2a5dec0ff354d7aa3a68a56afadfded9f497afc7e414592",
    ("rastrigin", "hraha", 1, 4, 30): "e34da21cc5827f2963de089bea3b62ddf55f6b428fdb06c716b1d128e65852b1",
    ("rastrigin", "rfo", 1, 4, 30): "61a7ac75a7235025c26a9b44262eec9f5a5af13d2a531b481482e1ad095943be",
    ("rastrigin", "aha", 1, 4, 30): "1bcc94eabf9e8dac698945caf62c461a189337c595bd53d28a07bab5723f233c",
    ("rastrigin", "pso", 1, 4, 30): "c37f4380aca46a5546c3591a9d3afeb81e7d775b66b329d3a18c9106c8de6a05",
    ("sphere", "hraha", 2, 6, 30): "2fa5ddbec58a114e205dc1abdeeba46d64439a4afa5926b06620a27cc4684767",
    ("sphere", "rfo", 2, 6, 30): "688a9770dd4c9f3488cb45062ce64140b196b1eff4f94574019ce668f8d3824c",
    ("sphere", "aha", 2, 6, 30): "a2ea791c9863261962baefde07378b4a6e102c0a4a3859d3898b7ee01837e5ae",
    ("sphere", "pso", 2, 6, 30): "126762afe2674fe59e21ae3c4bd55cb03cacd47bb6387fbd2e1e942dc86d0016",
    ("rastrigin", "hraha", 2, 6, 30): "230e1d920a1beb998480ff5720d9375e14a76d66d36d84e3224606ca29b7c14a",
    ("rastrigin", "rfo", 2, 6, 30): "2fb4af0384d10406569d7f9a351b998c526d59702a83e8be06b44b4f2fc7bb90",
    ("rastrigin", "aha", 2, 6, 30): "2e5d6f63942e5a988eb569f0824abb618e74ea51330b2099ba8f530f153201f7",
    ("rastrigin", "pso", 2, 6, 30): "83153dd3298301ec23c7af386f2d1d507c20e937b4448fe908ca41935bf87c96",
}


@pytest.mark.parametrize("key", sorted(PINNED_BEST_POSITION), ids=pin_id)
def test_fixed_seed_best_position_is_pinned(key):
    digest = hashlib.sha256(pinned_run(key).best_position.tobytes()).hexdigest()
    assert digest == PINNED_BEST_POSITION[key]


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
