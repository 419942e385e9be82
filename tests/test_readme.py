"""The README's python examples run and compute the values their comments
state.

Each block runs line by line (a statement may span lines). A bare
expression whose comment starts with a value is checked against it: ``~v``
means within 1e-3 of v, anything else is a Python literal that must compare
equal."""

import ast
import re
from pathlib import Path

import pytest

from varpolar.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def _claim(comment: str):
    """The value a comment states, or None for a comment that states none."""
    text = comment.strip()
    if text.startswith("~"):
        return pytest.approx(float(text[1:].split(":")[0]), abs=1e-3)
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return None


def _checked_values(block: str) -> list[tuple[str, object, object]]:
    """Run ``block``; return (source, value, claim) for every expression
    statement whose last line carries a value comment."""
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            _, _, comment = lines[node.end_lineno - 1].partition("#")
            claim = _claim(comment) if comment else None
            if claim is not None:
                checked.append((source, value, claim))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return checked


def test_the_readme_examples_compute_their_commented_values():
    checked = [item for block in _blocks() for item in _checked_values(block)]
    claims = {source: claim for source, _, claim in checked}
    # the values the README states, so that a rewrite of a comment shows here
    assert claims["lower_dini(f, 0.0, 1.0).value"] == -1.0
    assert claims["clarke_directional_values(f, [[0.0]], 1.0)[0][0]"] == 1.0
    assert claims['report.counts("subderivative_vs_iar")'] == {
        "agree": 65, "indeterminate": 0, "hard": 0,
    }
    assert claims['report.row(32)["verdicts"]'] == {
        "subderivative": False, "iar": False, "subdifferential": False, "iar_open": False,
    }
    assert claims['result["hard_total"]'] == 0
    assert claims["owner.tolist()"] == [0, 1, 1, 1, 2]
    assert claims["covectors[:, 0].tolist()"] == [0.0, 0.0, 0.5, 1.0, 1.0]
    for source, value, claim in checked:
        assert value == claim, source


def test_the_readme_config_example_loads(tmp_path):
    # its inline "; comment"s stayed in the values, and
    # int("65          ; 1-D grid resolution") failed: exit status 2
    (block,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    path = tmp_path / "run.ini"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(str(path), {})
    assert cfg.functions == ["abs", "square", "neg_abs"]
    assert cfg.suites == ["prop1", "thm2", "thm3", "cdd", "predicates"]
    assert (cfg.resolution, cfg.resolution_2d, cfg.out, cfg.format) == (65, 17, "reports", "json")
    assert (cfg.scheme.t0, cfg.scheme.ratio, cfg.scheme.steps) == (0.1, 0.7, 40)
    assert cfg.scheme.tail_fraction == 0.25
    assert (cfg.tol, cfg.band, cfg.polar_band) == (1e-6, 1e-3, 1e-2)
