"""One block budget: ``core._BLOCK_ENTRIES`` is the only module-level name
of ``src/varpolar`` that sizes blocks, so every blocked kernel takes its
blocks from :func:`~varpolar.core._row_blocks` and one budget bounds the
package's peak memory. An imported copy of the budget counts too: it would
keep its value when a test sets ``core._BLOCK_ENTRIES``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))


def _block_names(tree: ast.Module) -> list[str]:
    """Module-level names bound in ``tree`` (assigned, annotated, imported
    or defined) that contain ``BLOCK``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
    return [name for name in names if "BLOCK" in name]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_core_binds_a_block_budget(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    want = ["_BLOCK_ENTRIES"] if path.name == "core.py" else []
    assert _block_names(tree) == want


def test_the_check_sees_a_planted_budget():
    tree = ast.parse(
        "import numpy as np\n"
        "_FOO_BLOCK = 8\n"
        "def kernel(xs):\n"
        "    _INNER_BLOCK = 4\n"
        "    return xs[:_FOO_BLOCK]\n"
    )
    assert _block_names(tree) == ["_FOO_BLOCK"]
    assert _block_names(ast.parse("from .core import _BLOCK_ENTRIES as _MY_BLOCK\n")) == ["_MY_BLOCK"]
    assert _block_names(ast.parse("_BLOCK: int = 8\nA, (B_BLOCK, c) = 1, (2, 3)\n")) == [
        "_BLOCK", "B_BLOCK"]
