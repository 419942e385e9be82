"""One bound check: every public function of ``src/varpolar`` with a
``tol``, ``band`` or ``covector_half_width`` parameter passes it to
``core._check_bound`` in a statement of its own body, so a NaN, infinite or
negative value raises before any work instead of making a quantifier
vacuous."""

import ast
import math
from pathlib import Path

import pytest

from varpolar import DimensionMismatchError, FunctionOracle, cdd_profile, get_function

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))
KNOBS = ("tol", "band", "covector_half_width")


def _public_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module-level functions of ``tree`` and the methods of its
    module-level classes whose names do not start with ``_``."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [m for m in node.body if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append(node)
    return out


def _checked(fn: ast.FunctionDef) -> set[str]:
    """The knobs that ``fn``'s body passes to ``_check_bound(name, name)``
    as a statement of its own (not nested in a branch or a loop)."""
    out = set()
    for stmt in fn.body:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_check_bound"
                and len(call.args) == 2 and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[1], ast.Name) and call.args[0].value == call.args[1].id):
            out.add(call.args[1].id)
    return out


def _unchecked(tree: ast.Module) -> list[str]:
    """``function:knob`` for every bound knob of a public function of
    ``tree`` that the function does not check."""
    out = []
    for fn in _public_functions(tree):
        params = {a.arg for a in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]}
        out += [f"{fn.name}:{knob}" for knob in KNOBS if knob in params - _checked(fn)]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_bound_is_checked(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unchecked(tree) == []


def test_the_check_sees_an_unchecked_bound():
    tree = ast.parse(
        "def checked(f, tol=1e-6, band=1e-3):\n"
        "    _check_bound('tol', tol)\n"
        "    _check_bound('band', band)\n"
        "def nested(f, tol=1e-6):\n"
        "    if f:\n"
        "        _check_bound('tol', tol)\n"
        "def crossed(f, tol=1e-6, band=1e-3):\n"
        "    _check_bound('tol', band)\n"
        "    _check_bound('band', tol)\n"
        "def _private(f, tol=1e-6):\n"
        "    return f\n"
        "class Report:\n"
        "    def graded(self, *, covector_half_width=10.0):\n"
        "        return self\n"
        "class _Probes:\n"
        "    def rows(self, tol):\n"
        "        return tol\n"
    )
    assert _unchecked(tree) == ["nested:tol", "crossed:tol", "crossed:band",
                                "graded:covector_half_width"]
    minty = ast.parse((ROOT / "src" / "varpolar" / "minty.py").read_text(encoding="utf-8"))
    assert [fn.name for fn in _public_functions(minty)
            if _checked(fn)] == ["classify", "cross_validate"]


def test_cdd_profile_checks_its_directions_before_any_work(monkeypatch):
    # on abs, directions [[1.0, 2.0]] ran the whole stacked pass and then
    # raised numpy's matmul core-dimension error, and [[nan]] ran it too and
    # warned "invalid value encountered in matmul" at the pairings before
    # lower_dini_values raised
    def no_work(*args, **kwargs):
        raise AssertionError("f was evaluated")

    monkeypatch.setattr(FunctionOracle, "_evaluate", no_work)
    f, g = get_function("abs"), get_function("norm2d")
    for oracle, xbar, bad in ((f, [0.5], [[1.0, 2.0]]), (f, [0.5], [[[1.0]]]),
                              (g, [0.0, 0.0], [1.0, 0.0, 0.0]), (g, [0.0, 0.0], [[1.0], [0.0]])):
        with pytest.raises(DimensionMismatchError, match="directions must have shape"):
            cdd_profile(oracle, xbar, bad)
    for oracle, xbar, bad in ((f, [0.5], [[math.nan]]), (f, [0.5], [[1.0], [-math.inf]]),
                              (g, [0.0, 0.0], [[1.0, 0.0], [0.0, math.inf]])):
        with pytest.raises(ValueError, match="directions must have finite coordinates"):
            cdd_profile(oracle, xbar, bad)
