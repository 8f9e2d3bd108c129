"""Every name a module lists in ``__all__`` resolves, so a deleted helper
cannot linger in an export list."""

import importlib
import pkgutil

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
