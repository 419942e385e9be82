"""numpy is the package's only runtime dependency: every import in
``src/varpolar`` is of the standard library, of numpy or of the package
itself, and ``pyproject.toml`` declares numpy alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))


def _imported_roots(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in a module."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return roots


def test_the_package_has_modules_to_check():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_stdlib_numpy_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        f"{path.name}:{line}: {root}"
        for line, root in _imported_roots(tree)
        if root != "numpy" and root not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_pyproject_declares_numpy_as_the_only_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M)
    assert block is not None
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in re.findall(r'"([^"]+)"', block[1])]
    assert names == ["numpy"]
