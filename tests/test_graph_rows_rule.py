"""One numeric graph construction: ``subdifferential._graph_rows`` is the
only code of ``src/varpolar`` that calls ``_gradient_hulls`` or
``_clarke_polytopes``, so every numeric graph, the cdd pass's included,
builds its rows once per bit-distinct point and gathers them back."""

import ast
from pathlib import Path

import pytest

from test_rays_kernel_rule import _calls

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))
ROUTE = "_graph_rows"
BUILDERS = {"_gradient_hulls", "_clarke_polytopes"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_graph_rows_builds_numeric_rows(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    route = ROUTE if path.name == "subdifferential.py" else None
    assert [f"{path.name}:{line}" for line in _calls(tree, route, BUILDERS)] == []


def test_the_check_sees_a_builder_call():
    tree = ast.parse(
        "def rows(f, pts, dirs):\n"
        "    return _gradient_hulls(f, pts, dirs, 10.0)\n"
        "def table(support, dirs):\n"
        "    return subdifferential._clarke_polytopes(support, dirs, 10.0)\n"
        "def _graph_rows(f, pts, dirs):\n"
        "    return _gradient_hulls(f, pts, dirs, 10.0)\n"
    )
    assert _calls(tree, names=BUILDERS) == [2, 4, 6]
    assert _calls(tree, ROUTE, BUILDERS) == [2, 4]
    module = ast.parse((ROOT / "src" / "varpolar" / "subdifferential.py").read_text(encoding="utf-8"))
    assert _calls(module, names=BUILDERS) and not _calls(module, ROUTE, BUILDERS)
