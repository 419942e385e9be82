"""One rays kernel: ``minty._tilted_iar_residuals`` is the only code of
``src/varpolar`` that calls a rays grid's ``walk``, ``fold`` or ``settle``,
so prop1, thm2, thm3, ``iar_check`` and ``polar_membership_via_iar`` share
its endpoint bound, stop rule and block walk. Likewise one subderivative
route: ``minty._subderivative_residuals`` is the only caller of
``minty._max_quotients``, so every max over probe points takes its stop
and probe ladder."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))
KERNEL = "_tilted_iar_residuals"
METHODS = {"walk", "fold", "settle"}
ROUTE = "_subderivative_residuals"
QUOTIENTS = {"_max_quotients"}


def _calls(tree: ast.AST, kernel: str | None = None, names: set[str] = METHODS) -> list[int]:
    """Lines of every call in ``tree`` of a function or method named in
    ``names``, skipping the body of the function named ``kernel``."""
    lines = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == kernel:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_subderivative_route_takes_max_quotients(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    route = ROUTE if path.name == "minty.py" else None
    assert [f"{path.name}:{line}" for line in _calls(tree, route, QUOTIENTS)] == []


def test_the_check_sees_a_max_quotients_call():
    tree = ast.parse(
        "def g(f, xbars, ys, fy, scheme):\n"
        "    return _max_quotients(f, xbars, ys, fy, scheme, 1)\n"
        "def h(f, xbars, ys, fy, scheme):\n"
        "    return minty._max_quotients(f, xbars, ys, fy, scheme, 1)\n"
    )
    assert _calls(tree, names=QUOTIENTS) == [2, 4]
    minty = ast.parse((ROOT / "src" / "varpolar" / "minty.py").read_text(encoding="utf-8"))
    assert _calls(minty, names=QUOTIENTS) and not _calls(minty, ROUTE, QUOTIENTS)
