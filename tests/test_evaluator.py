"""f has one evaluator: ``FunctionOracle.value``, ``values`` and
``values_at`` all go through it, it runs ``batch`` whenever the oracle has
one, and no other module of ``src/varpolar`` reads an oracle's ``fn`` or
``batch``. An oracle needs one of the two."""

import ast
from pathlib import Path

import numpy as np
import pytest

from varpolar.core import FunctionOracle

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "varpolar").glob("*.py"))
EVALUATORS = {"fn", "batch"}


def _reads(tree: ast.AST, inside: str | None = None) -> list[tuple[int, str]]:
    """(line, attribute) of every read of ``.fn`` or ``.batch`` in ``tree``,
    skipping the body of the class named ``inside``."""
    reads = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == inside:
            continue
        if isinstance(node, ast.Attribute) and node.attr in EVALUATORS:
            reads.append((node.lineno, node.attr))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_function_oracle_reads_fn_or_batch(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    inside = "FunctionOracle" if path.name == "core.py" else None
    assert [f"{path.name}:{line}: .{attr}" for line, attr in _reads(tree, inside)] == []


def test_the_check_sees_a_read():
    tree = ast.parse("def g(f):\n    return f.fn(0) + f.batch\n")
    assert _reads(tree) == [(2, "batch"), (2, "fn")]
    core = ast.parse((ROOT / "src" / "varpolar" / "core.py").read_text(encoding="utf-8"))
    assert _reads(core) and not _reads(core, "FunctionOracle")


@pytest.mark.parametrize("dim", [1, 2])
def test_an_oracle_with_batch_never_calls_fn(dim):
    calls = []

    def fn(x):
        calls.append(x)
        return 0.0

    f = FunctionOracle("spy", dim, fn=fn, batch=lambda *x: np.abs(x[0]),
                       finite_point=np.zeros(dim))
    for oracle in (f, f.shifted(np.ones(dim))):
        oracle.value(np.ones(dim))
        oracle.values(np.ones((4, dim)))
        oracle.values_at(*np.ones((dim, 3)))
    assert calls == []
    # without batch, fn evaluates every point, value included
    looped = FunctionOracle("spy", dim, fn=fn)
    looped.value(np.ones(dim))
    looped.values(np.ones((4, dim)))
    looped.values_at(*np.ones((dim, 3)))
    assert len(calls) == 1 + 4 + 3


def test_value_has_the_bits_of_values():
    # one evaluator: value is the one-point case of values
    f = FunctionOracle("sqrt", 2, batch=lambda x1, x2: np.sqrt(x1 * x1 + x2 * x2))
    pts = np.random.default_rng(2).uniform(-3.0, 3.0, size=(200, 2))
    assert np.array([f.value(p) for p in pts]).tobytes() == f.values(pts).tobytes()


def test_an_oracle_without_fn_or_batch_is_rejected_naming_it():
    with pytest.raises(ValueError, match="oracle 'blank' needs fn or batch"):
        FunctionOracle("blank", 1)
    with pytest.raises(ValueError, match="oracle 'blank2' needs fn or batch"):
        FunctionOracle("blank2", 2, fn=None, batch=None, is_convex=True)


@pytest.mark.parametrize("dim", [1, 2])
def test_shifted_tilts_an_oracle_that_has_only_fn(dim):
    # x -> |x_1| - <c, x>, evaluated point by point through the tilted fn
    f = FunctionOracle("scalar", dim, fn=lambda x: abs(float(x[0])))
    c = np.arange(1.0, dim + 1.0)
    g = f.shifted(c)
    assert g.batch is None and g.fn is not None
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(50, dim))
    want = np.abs(pts[:, 0]) - pts @ c
    assert np.allclose(g.values(pts), want, rtol=0.0, atol=1e-12)
    assert g.value(np.ones(dim)) == pytest.approx(1.0 - c.sum())
