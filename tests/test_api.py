"""Every exported or demo-imported name resolves, and every demo call of one
binds to its signature, so a deletion or a signature change cannot strand a
demo; importing the package stays cheap; and the module layering holds."""

import ast
import importlib
import inspect
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


def _names_from_ficd(tree):
    """(local name -> object for each name the module imports from ficd, missing names)."""
    found, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ficd":
            module = importlib.import_module(node.module)
            for a in node.names:
                if hasattr(module, a.name):
                    found[a.asname or a.name] = getattr(module, a.name)
                else:
                    missing.append(f"{node.module}.{a.name}")
    return found, missing


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    """Parses the demo, without running it, and looks up each name it takes from ficd."""
    _, missing = _names_from_ficd(ast.parse(path.read_text(), filename=str(path)))
    assert not missing, f"{path.name} imports names ficd does not define: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_calls_bind(path):
    """Binds each demo call of a name taken from ficd, or of an attribute of one
    (``Condition.target``), to that callable's signature, without running the demo."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, _ = _names_from_ficd(tree)
    stale = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target = names[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in names
        ):
            target = getattr(names[func.value.id], func.attr, None)
            if target is None:
                stale.append(f"line {node.lineno}: ficd defines no {ast.unparse(func)}")
                continue
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue  # *args or **kwargs: the bound names are not known statically
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as err:
            stale.append(f"line {node.lineno}: {ast.unparse(func)}: {err}")
    assert not stale, f"{path.name} makes calls ficd's signatures reject: {stale}"


SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
import ficd
from ficd.cli import main
config = ficd.ExperimentConfig.from_sources(
    preset=ficd.PRESETS["gmm-tilt"],
    overrides=[("schedule.T", "20"), ("sampler.n_chains", "64")],
)
energy, condition = config.build_energy()
samples, _ = ficd.sample(config.sampler_config(), config.build_model(), energy, condition)
ficd.sliced_wasserstein(samples, samples + 1.0, n_projections=4)
ficd.tilted_gmm_oracle(config.gmm(), np.array([0.5, 0.25]), config["sampler.lam"])
sys.exit(main(["sample", "--preset", "gmm-tilt", "--T", "20", "--out", sys.argv[1],
               "--set", "sampler.n_chains=64"]))
"""


def test_import_sampling_and_sliced_wasserstein_load_no_scipy(tmp_path):
    """ficd runs on numpy alone: import, sampling, the sliced Wasserstein
    distance, the tilted-mixture oracle and `ficd sample` need no scipy."""
    src = str(Path(ficd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "samples.csv").is_file()


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


def _callers(names):
    """The package's files, as paths relative to it, that call one of names."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "attr", getattr(func, "id", None)) in names:
                found.add(path.relative_to(PACKAGE).as_posix())
    return found


def test_only_posterior_pulls_back_through_the_score():
    """Outside the score models, only posterior.posterior_pullback calls score_vjp."""
    callers = {path for path in _callers({"score_vjp"}) if not path.startswith("scoremodel/")}
    assert callers == {"posterior.py"}


def test_only_verify_runs_the_claim_checks():
    """Inside the package only ficd.verify calls the four claims' checks, so
    no second copy of a suite grows back beside it; ``import ficd`` does
    not load it."""
    checks = {"tweedie_posterior_mean", "finite_diff_jacobian"}
    checks |= {"bound_verification", "deviation_bound_check"}
    assert _callers(checks) == {"verify.py"}
    assert "ficd.verify" not in _ficd_imports(ast.parse((PACKAGE / "__init__.py").read_text()))


def test_private_names_stay_in_their_module_or_subpackage():
    """A ``_`` name is imported only inside the top-level module or the
    subpackage that defines it: the score models share ``_as_rows``, but
    no module reaches into another top-level module's private names."""

    def unit(dotted):  # ficd.cli -> ficd.cli; ficd.scoremodel.gmm -> ficd.scoremodel
        return ".".join(dotted.split(".")[:2])

    crossings = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if node.level:
                source = ".".join([*parts[: -node.level], *filter(None, [node.module])])
            for alias in node.names:
                if alias.name.startswith("_") and unit(source) != unit(".".join(parts)):
                    crossings.append(f"{'/'.join(parts)} imports {source}.{alias.name}")
    assert crossings == []
