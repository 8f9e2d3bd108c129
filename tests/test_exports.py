"""Every name a module lists in ``__all__`` resolves, so a deleted helper
cannot linger in an export list; every private module-level name in ``src/``
is used somewhere, so a helper whose last caller went cannot linger either;
and every module-level import in ``src/`` and ``tests/`` is used by its
module."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import foxbird

MODULES = ["foxbird"] + sorted(
    info.name for info in pkgutil.walk_packages(foxbird.__path__, "foxbird."))


def test_every_module_is_found():
    for name in ("core", "hraha", "baselines", "benchmarks", "harness",
                 "metrics", "textpipe", "kernels", "cli"):
        assert f"foxbird.{name}" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


ROOT = Path(foxbird.__file__).resolve().parents[2]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def private_definitions():
    """(module path, name) of every module-level private function, class or
    constant under ``src/``."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield path.relative_to(ROOT).as_posix(), name


def test_every_private_definition_is_used():
    # a private helper is referenced somewhere besides its definition:
    # by src, a test or perfbench (which may name it in a string)
    text = "\n".join(p.read_text(encoding="utf-8") for p in SOURCES)
    defs = list(private_definitions())
    assert len(defs) > 10
    n_defs = Counter(name for _, name in defs)
    unused = [(path, name) for path, name in defs
              if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= n_defs[name]]
    assert unused == []


def unused_imports(path):
    """Names a module-level import binds in ``path`` that the module never
    references, does not list in ``__all__`` and does not mark
    ``# noqa: F401``; ``from __future__`` imports are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {e.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for e in node.value.elts}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                yield name


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py"))
                         + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert list(unused_imports(path)) == []
