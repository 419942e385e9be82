"""One rays kernel: ``minty._tilted_iar_residuals`` is the only code of
``src/varpolar`` that calls a rays grid's ``walk``, ``fold`` or ``settle``,
so prop1, thm2, thm3, ``iar_check`` and ``polar_membership_via_iar`` share
its endpoint bound, stop rule and block walk."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))
KERNEL = "_tilted_iar_residuals"
METHODS = {"walk", "fold", "settle"}


def _calls(tree: ast.AST, kernel: str | None = None) -> list[int]:
    """Lines of every call of a method named in METHODS in ``tree``,
    skipping the body of the function named ``kernel``."""
    lines = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == kernel:
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in METHODS):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_kernel_walks_a_rays_grid(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kernel = KERNEL if path.name == "minty.py" else None
    assert [f"{path.name}:{line}" for line in _calls(tree, kernel)] == []


def test_the_check_sees_a_call():
    tree = ast.parse(
        "def g(f, x, rays):\n"
        "    for block in rays.walk(x):\n"
        "        rays.fold(f.values_at(*block[2]), rays.g, block)\n"
        "    return rays.settle(rays.g[None] - rays.g)\n"
    )
    assert _calls(tree) == [2, 3, 4]
    minty = ast.parse((ROOT / "src" / "varpolar" / "minty.py").read_text(encoding="utf-8"))
    assert _calls(minty) and not _calls(minty, KERNEL)
