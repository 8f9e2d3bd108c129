"""The README's Quick start block and example config run as written."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from foxbird.cli import EXIT_OK, main
from foxbird.harness import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def example_config() -> dict:
    section = README.read_text(encoding="utf-8").split("An example config:", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_quick_start_runs():
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start_code(), namespace)
    result = namespace["result"]
    assert len(result.history) == 500
    assert result.best_fitness <= 1e-2
    best, evaluations = out.getvalue().split()
    assert math.isclose(float(best), result.best_fitness)
    assert int(evaluations) == result.evaluations


def test_example_config_runs(tmp_path):
    config = example_config()
    exp = parse_config(config)
    # the same experiment on a small budget, so the test stays fast
    config["budget"] = {"pop_size": 4, "iterations": 2}
    config["seeds"] = {"count": 2, "master_seed": 0}
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "results"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert sorted(report["rows"]) == sorted(exp.methods)
    assert report["seeds"] == [0, 1]
