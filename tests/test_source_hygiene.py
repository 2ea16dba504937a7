"""Source hygiene of the package, read with the standard `ast` module: no
import goes unused, no module-level private name goes unreferenced, and no
top-level function or class name is defined in two modules. A deletion
that leaves an orphan behind, or a per-module copy of a helper, fails
here."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rainbowposet"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _used_names(tree):
    """Every bare name that occurs in a module, the base of each attribute
    chain included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _referenced_anywhere():
    """Every name that some module reads, imports by name or reaches as an
    attribute."""
    seen = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
    return seen


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{module} imports but never uses {unused}"


def test_every_private_module_name_is_referenced():
    referenced = _referenced_anywhere()
    orphans = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and name not in referenced:
                    orphans.append(f"{module}.{name}")
    assert not orphans, f"defined but never referenced: {orphans}"


def test_no_top_level_name_is_defined_in_two_modules():
    homes = {}
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, []).append(module)
    copies = {name: modules for name, modules in homes.items() if len(modules) > 1}
    assert not copies, f"defined in more than one module: {copies}"
