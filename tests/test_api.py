"""The public API has a caller in the package or its scripts, not only in tests.

Every name that ``dtqw/__init__.py`` re-exports, and every public method or
property defined in the body of a re-exported class, must be referenced (as
a name or an attribute) by another module of ``src/dtqw`` or by a script
under ``scripts/``.  The path-sum oracle is exempt: only tests call it, by
design.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtqw"
ORACLE = {"path_sum_amplitudes", "compare"}
ORACLE_MODULE = "pathsum"


def reexports() -> list[ast.ImportFrom]:
    return [node for node in ast.parse((PACKAGE / "__init__.py").read_text()).body if isinstance(node, ast.ImportFrom)]


def reexported_names() -> set[str]:
    return {alias.asname or alias.name for node in reexports() for alias in node.names}


def public_members() -> set[str]:
    """``Class.member`` of every public method or property in the body of a re-exported class."""
    members = set()
    for node in reexports():
        if node.module == ORACLE_MODULE:
            continue
        names = {alias.name for alias in node.names}
        for cls in ast.parse((PACKAGE / f"{node.module}.py").read_text()).body:
            if isinstance(cls, ast.ClassDef) and cls.name in names:
                members |= {f"{cls.name}.{fn.name}" for fn in cls.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
    return members


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


def test_every_public_member_of_a_reexported_class_has_a_caller_outside_tests():
    members = public_members()
    assert "JointBuilder.quarters" in members and "ScenarioConfig.start_sites" in members, members
    referenced = referenced_names()
    unused = sorted(member for member in members if member.split(".")[1] not in referenced)
    assert not unused, f"public members used only by tests: {unused}"
