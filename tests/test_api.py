"""Every exported or demo-imported name resolves, so a deletion cannot strand one;
importing the package stays cheap; and the module layering holds."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    """Parses the demo, without running it, and looks up each name it takes from ficd."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ficd":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"{path.name} imports names ficd does not define: {missing}"


def test_import_does_not_load_scipy_stats():
    """scipy.stats costs about a second to import; only two oracles need it."""
    src = str(Path(ficd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, ficd; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


PACKAGE = Path(ficd.__file__).resolve().parent


def _ficd_imports(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else ["."]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [n for n in names if n == "." or n.split(".")[0] == "ficd"]
    return found


def test_guidance_imports_no_ficd_module():
    """Energies and conditions stand alone; the pullback lives in posterior."""
    tree = ast.parse((PACKAGE / "guidance.py").read_text())
    assert _ficd_imports(tree) == []


def test_only_posterior_pulls_back_through_the_score():
    """Outside the score models, only posterior.posterior_pullback calls score_vjp."""
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if "scoremodel" in path.relative_to(PACKAGE).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "score_vjp"
            ):
                callers.append(path.relative_to(PACKAGE).as_posix())
    assert sorted(set(callers)) == ["posterior.py"]
