"""One comparison rule: ``minty.classify`` decides every agree /
indeterminate / hard class of prop1, thm2 and thm3, so no other code of
``src/varpolar`` returns or assigns the class ``"indeterminate"``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))
CLASS = "indeterminate"


def _is_class(value: ast.AST | None) -> bool:
    """Is ``value`` the constant CLASS, a conditional expression with it as
    a branch, or a call such as ``np.where`` with it among its arguments?"""
    if isinstance(value, ast.IfExp):
        return _is_class(value.body) or _is_class(value.orelse)
    if isinstance(value, ast.Call):
        return any(map(_is_class, [*value.args, *(k.value for k in value.keywords)]))
    return isinstance(value, ast.Constant) and value.value == CLASS


def _decisions(tree: ast.AST, rule: str | None = None) -> list[int]:
    """Lines of every ``return`` or assignment of CLASS in ``tree``, and of
    every call that takes it as an argument wherever the call stands,
    skipping the body of the function named ``rule``. Dict keys and
    comparisons with CLASS are reads, not decisions."""
    lines = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == rule:
            continue
        if isinstance(node, (ast.Return, ast.Assign)) and _is_class(node.value):
            lines.add(node.lineno)
        if isinstance(node, ast.Call) and _is_class(node):
            lines.add(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_classify_decides_a_class(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rule = "classify" if path.name == "minty.py" else None
    assert [f"{path.name}:{line}" for line in _decisions(tree, rule)] == []


def test_the_check_sees_a_decision():
    tree = ast.parse(
        "def g(row, r):\n"
        "    row['class'] = 'indeterminate'\n"
        "    counts = {'indeterminate': 0}\n"
        "    if row['class'] == 'indeterminate':\n"
        "        return 'hard' if r else 'indeterminate'\n"
        "    out = np.where(r, 'agree', np.where(r, 'indeterminate', 'hard'))\n"
        "    row['classes'].append(np.where(r, 'hard',\n"
        "                                   'indeterminate'))\n"
        "    np.count_nonzero(row['classes'] == 'indeterminate')\n"
    )
    assert _decisions(tree) == [2, 5, 6, 7]
    minty = ast.parse((ROOT / "src" / "varpolar" / "minty.py").read_text(encoding="utf-8"))
    assert _decisions(minty) and not _decisions(minty, "classify")
