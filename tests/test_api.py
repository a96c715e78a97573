"""The public API has a caller in the package or its scripts, not only in tests.

Every name that ``dtqw/__init__.py`` re-exports must be referenced (as a
name or an attribute) by another module of ``src/dtqw`` or by a script under
``scripts/``.  The path-sum oracle is exempt: only tests call it, by design.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtqw"
ORACLE = {"path_sum_amplitudes", "compare"}


def reexported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list((ROOT / "scripts").glob("*.py"))
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_reexported_name_has_a_caller_outside_tests():
    exported = reexported_names()
    assert exported, "no re-exports found"
    unused = sorted(exported - referenced_names() - ORACLE)
    assert not unused, f"re-exported but used only by tests: {unused}"
