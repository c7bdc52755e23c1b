"""The public surface: every exported name has a user outside the package and the tests."""

import ast
import re
import types
from pathlib import Path

import recomblab

ROOT = Path(__file__).resolve().parents[1]


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
