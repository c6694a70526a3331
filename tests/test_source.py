"""Source hygiene: every public name in the package is used.

A public function or class that no module of the package references, and
that no ``__all__`` exports, is code that only tests (or nothing) run; it
belongs in the tests or nowhere. The same holds for a public method or
property of a package class whose name no module of the package reads as
an attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vrusim"


def referenced_names(node: ast.AST) -> set[str]:
    """Names a piece of code reads, calls, imports or annotates with."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {ast.literal_eval(elt) for elt in stmt.value.elts}
    return set()


def package_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def unused_public_definitions() -> list[str]:
    modules = package_modules()
    exported = set().union(*(exported_names(tree) for tree in modules.values()))
    # (module, statement, names it references), one per top-level statement
    statements = [
        (name, stmt, referenced_names(stmt)) for name, tree in modules.items() for stmt in tree.body
    ]
    unused = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_") or stmt.name in exported:
            continue
        # a definition's own body (a recursive call) does not count as a use
        if not any(stmt.name in refs for _, other, refs in statements if other is not stmt):
            unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_public_definition_is_used_or_exported():
    assert unused_public_definitions() == []


def unread_public_members() -> list[str]:
    modules = package_modules()
    read = {sub.attr for tree in modules.values() for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
    unread = []
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not stmt.name.startswith("_")
                    and stmt.name not in read
                ):
                    unread.append(f"{module}.{cls.name}.{stmt.name}")
    return unread


def test_every_public_method_is_read_by_the_package():
    assert unread_public_members() == []
