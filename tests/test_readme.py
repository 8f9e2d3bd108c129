"""The README's Quick start block runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
