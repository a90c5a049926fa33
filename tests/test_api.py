"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import ficd

MODULES = ["ficd"] + sorted(
    info.name
    for info in pkgutil.walk_packages(ficd.__path__, prefix="ficd.")
    if info.name != "ficd.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
