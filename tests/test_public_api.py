"""The public API is what ``varpolar/__init__.py`` imports, and the README
names only that API: ``__all__`` lists exactly the imported names, each
resolves, and every function of the README's ``Verdict`` paragraph and of
its ``core._check_bound`` list is in ``__all__`` (or is
``minty.classify``, which the list names by its module)."""

import ast
import re
from pathlib import Path

import varpolar

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "varpolar" / "__init__.py"
README = ROOT / "README.md"


def _imported_names() -> list[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _named(pattern: str) -> list[str]:
    """The backticked names in the README passage that ``pattern``'s one
    group matches (whitespace-normalized)."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    (passage,) = re.findall(pattern, text)
    return re.findall(r"`([\w.]+)`", passage)


def test_all_is_exactly_the_imported_names():
    names = _imported_names()
    assert len(names) == len(set(names))
    assert sorted(varpolar.__all__) == sorted(names)
    for name in varpolar.__all__:
        assert getattr(varpolar, name) is not None, name


def test_the_readme_names_only_public_functions():
    verdicts = _named(r"Every check returns one type, `Verdict\([^`]*\)`: (.*?)\. ")
    bounds = _named(r"`covector_half_width` of the library before any work: (.*?) \(`tests/")
    assert "cdd_profile" in verdicts and "cross_validate" in bounds
    for name in verdicts + bounds:
        assert name in varpolar.__all__ or name == "minty.classify", name
