"""One pairing: ``core._pairing`` sums the products coordinate by coordinate
in axis order, so a pairing's bits depend only on its operands. A BLAS
product (``@``, ``np.dot``, ``np.matmul``, ``np.einsum``, ``np.inner``,
``np.tensordot``) splits its sums where the library chooses, so its last
bits can change with the shape of the call and the machine. No code of
``src/varpolar`` forms one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))
PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot"}


def _products(tree: ast.AST) -> list[int]:
    """Lines of every matrix product in ``tree``: a ``@`` or ``@=`` operator,
    or a call of a function or method named in :data:`PRODUCTS`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PRODUCTS:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_forms_a_matrix_product(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}:{line}" for line in _products(tree)] == []


def test_the_check_sees_a_planted_product():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import einsum\n"
        "@staticmethod\n"
        "def g(a, b):\n"
        "    c = a @ b.T\n"
        "    c @= b\n"
        "    d = np.dot(a, b) + a.dot(b) + np.matmul(a, b)\n"
        "    e = einsum('ij,ij->i', a, b) + np.inner(a, b)\n"
        "    return np.tensordot(a, b, axes=1)\n"
    )
    assert _products(tree) == [5, 6, 7, 7, 7, 8, 8, 9]
    # a decorator is not a product, and neither is the package's pairing
    assert _products(ast.parse("@dataclass\nclass A:\n    x = _pairings(u, v)\n")) == []
