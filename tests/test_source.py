"""Source hygiene: every name the package defines is used by the package.

A module-level function or class counts as used only when another
statement of its own module names it, or another package module imports
it by name. A re-export from ``vrusim/__init__.py`` is no use, and
neither is an ``__all__``, except that of a library-only module: one no
package module imports, whose ``__all__`` is its public API. A private
function or class (``_name``) is never API: a helper only the tests call
belongs in the tests.

A public method or property of a package class must be read as an
attribute somewhere in the package, and so must every public field of a
dataclass: state the package writes and never reads belongs nowhere. A
class that a library-only module exports is API, and its members are
exempt.

No module imports numpy: the kernels must give the bits of ``math``'s
scalar functions, which vectorised loops need not, and numpy is only a
test dependency. And no module imports a name it never uses: a name in an
annotation (quoted or not) or in ``__all__`` counts as used.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vrusim"


def exported_names(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {ast.literal_eval(elt) for elt in stmt.value.elts}
    return set()


def package_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def imports_by_name(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` in a module."""
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def library_api(modules: dict[str, ast.Module]) -> dict[str, set[str]]:
    """The ``__all__`` of each module no package module imports; the
    package's own re-exports are no API of this kind."""
    imported = {module for tree in modules.values() for module, _ in imports_by_name(tree)}
    return {
        name: exported_names(tree)
        for name, tree in modules.items()
        if name != "__init__" and name not in imported
    }


def unused_definitions(private: bool) -> list[str]:
    """The module-level functions and classes, private (``_name``) or
    public, that no other statement of the package names."""
    modules = package_modules()
    api = library_api(modules)
    unused = []
    for module, tree in modules.items():
        exempt = api.get(module, set())
        imported_elsewhere = {
            name
            for other, other_tree in modules.items()
            if other not in (module, "__init__")
            for source, name in imports_by_name(other_tree)
            if source == module
        }
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("_") != private or name in exempt or name in imported_elsewhere:
                continue
            # a definition's own body (a recursive call) does not count as a
            # use, and an attribute of the same name is some other object's
            if not any(
                isinstance(node, ast.Name) and node.id == name
                for other in tree.body
                if other is not stmt
                for node in ast.walk(other)
            ):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_definition_is_used_or_exported():
    assert unused_definitions(private=False) == []


def test_every_private_definition_is_used_by_the_package():
    assert unused_definitions(private=True) == []


def attributes_read(modules: dict[str, ast.Module]) -> set[str]:
    return {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def unread_members(fields: bool) -> list[str]:
    """Public dataclass fields (``fields``) or public methods and
    properties of package classes that no package module reads as an
    attribute."""
    modules = package_modules()
    read = attributes_read(modules)
    api = library_api(modules)
    unread = []
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in api.get(module, ()):
                continue
            for stmt in cls.body:
                if fields and isinstance(stmt, ast.AnnAssign) and is_dataclass(cls):
                    name = stmt.target.id
                elif not fields and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = stmt.name
                else:
                    continue
                if not name.startswith("_") and name not in read:
                    unread.append(f"{module}.{cls.name}.{name}")
    return unread


def test_every_public_method_is_read_by_the_package():
    assert unread_members(fields=False) == []


def test_every_public_dataclass_field_is_read_by_the_package():
    assert unread_members(fields=True) == []


def imported_packages(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_numpy():
    assert [module for module, tree in package_modules().items() if "numpy" in imported_packages(tree)] == []


def names_used(tree: ast.Module) -> set[str]:
    """Every name a module loads, including those inside quoted
    annotations, and every name its ``__all__`` exports."""
    used = exported_names(tree) | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else node.annotation
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def unused_imports() -> list[str]:
    unused = []
    for module, tree in package_modules().items():
        used = names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{module}: {name}" for name in bound if name not in used]
    return unused


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports() == []
