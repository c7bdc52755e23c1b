"""The public surface: every exported name has a user outside the package and the tests."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import recomblab

ROOT = Path(__file__).resolve().parents[1]
# the directory this process imported recomblab from, first on the child's path
PACKAGE_ROOT = str(Path(recomblab.__file__).resolve().parents[1])

# the exports as they stood while the package imported every module at once
FORMER_EXPORTS = {
    "cube": [
        "Pmf", "monochromatic_pmf", "point_mass", "product_fourier", "product_pmf",
        "random_balanced_pmf", "random_pmf", "stationary_product", "tv_distance",
        "uniform_pmf", "wht_forward",
    ],
    "discrete": [
        "collide_coeffs", "collide_direct", "collide_pmf", "discrete_upper_bounds",
        "evolve_discrete", "fragmentation_time", "fragmentation_times", "mono_mixture_tv",
    ],
    "errors": [
        "CapacityError", "ConfigError", "InvalidDistributionError", "NumericalInvariantError",
        "RecombError",
    ],
    "profiles": [
        "check_l1_l2_bound", "gaussian_tv", "gaussian_tv_asymptotics", "l1_from_l2_bound",
        "lowerbound_experiment_continuous", "lowerbound_experiment_discrete",
        "mixture_profile_tv", "mono_tv_large_n_limit", "two_valued_extremal_density",
    ],
    "streams": ["STREAM_ALGORITHM", "rng_substream"],
    "yule": [
        "MonteCarloMeasure", "double_quenched_estimate", "evolve_continuous",
        "martingale_limit_samples", "martingale_samples", "sample_yule",
        "spinal_identity_check", "tail_probability_from_samples", "wild_mc_estimate",
    ],
}


def _run_python(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_package_import_loads_no_submodule(tmp_path):
    # each export is imported from its module on first access
    r = _run_python(
        "import json, sys, recomblab\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('recomblab.'))))",
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == []


def test_every_former_export_resolves_to_its_module_object():
    assert sorted(recomblab.__all__) == sorted(sum(FORMER_EXPORTS.values(), []))
    for module, names in FORMER_EXPORTS.items():
        home = importlib.import_module(f"recomblab.{module}")
        for name in names:
            assert getattr(recomblab, name) is getattr(home, name), name
    # names outside the table are submodules, or missing
    from recomblab import binomial, yule

    assert yule is importlib.import_module("recomblab.yule")
    assert binomial is importlib.import_module("recomblab.binomial")
    with pytest.raises(AttributeError, match="no_such_name"):
        recomblab.no_such_name
    with pytest.raises(ImportError):
        from recomblab import no_such_name  # noqa: F401


def test_readme_python_examples_run(tmp_path):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        r = _run_python(block, tmp_path)
        assert r.returncode == 0, r.stderr


def _reads(tree: ast.AST) -> set:
    """Every name a module reads, bare or as an attribute."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def _reader_sources() -> list:
    """The code whose reads make an export public: the CLI, the acceptance
    registry and the README's python blocks, plus the bench scripts until
    the benchmark times its layers through the CLI and the registry alone."""
    package = ROOT / "src" / "recomblab"
    paths = [package / "cli.py", package / "acceptance.py"] + sorted((ROOT / "bench").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    return [p.read_text() for p in paths] + re.findall(r"```python\n(.*?)```", readme, re.S)


def test_every_export_has_a_non_test_user():
    # no reader source defines an exported name, so a read there is a use
    reads = set().union(*(_reads(ast.parse(src)) for src in _reader_sources()))
    exports = {
        name
        for name in recomblab.__all__
        if name != "__version__"
        and not isinstance(getattr(recomblab, name), types.ModuleType)
    }
    unused = exports - reads
    assert not unused, f"exported but read only by the package or the tests: {sorted(unused)}"


def test_only_the_cli_writes_files_or_knows_csv():
    # the output formats and the write path live in cli.py alone
    found = []
    for path in sorted((ROOT / "src" / "recomblab").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "open" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                found.append((path.name, node.lineno, "open("))
            elif isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes"):
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                found.append((path.name, node.lineno, "import csv"))
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.append((path.name, node.lineno, "from csv import"))
    assert not found, f"file output or csv outside cli.py: {found}"


def test_no_module_imports_private_scipy():
    # a `_`-prefixed scipy module or name is internal, and any scipy release
    # may rename it
    found = []
    for path in sorted((ROOT / "src" / "recomblab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports = [(alias.name, []) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports = [(node.module, [alias.name for alias in node.names])]
            else:
                continue
            for module, names in imports:
                parts = module.split(".")
                private = [part for part in parts + names if part.startswith("_")]
                if parts[0] == "scipy" and private:
                    found.append((path.name, node.lineno, module, private))
    assert not found, f"private scipy imports: {found}"
