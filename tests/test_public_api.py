"""Every name the package re-exports has a use outside the unit tests.

A use is a name or attribute in the package's own modules, the demos or
the benchmark (whose string constants count too, so the names the
tracer wraps are uses), in the acceptance checks, or a word of the
README.  Docstrings do not count: describing a name does not use it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "fndam" / "__init__.py"
WORD = re.compile(r"[A-Za-z_]\w*")


def exported_names() -> set[str]:
    """The names fndam/__init__.py imports from the package's modules."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def names_used_in(path: Path) -> set[str]:
    """Names, attributes and words of string constants in one Python file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            used.update(WORD.findall(node.value))
    return used


def names_used_outside_unit_tests() -> set[str]:
    files = [p for p in (ROOT / "src").rglob("*.py") if p != INIT]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").rglob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    used = set(WORD.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    for path in files:
        used |= names_used_in(path)
    return used


def test_every_export_is_used_outside_the_unit_tests():
    assert sorted(exported_names() - names_used_outside_unit_tests()) == []
