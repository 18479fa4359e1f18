"""Dead code checks on the package and the scripts, read with the stdlib ast module."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qsym").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set:
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _names_read(tree: ast.AST) -> Counter:
    """How often each name is read as a variable in the tree."""
    return Counter(node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))


def _references(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute, or imported
    from another module, in the tree."""
    refs = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    unused = imported - set(_names_read(tree)) - _exported(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def _private_definitions(tree: ast.Module):
    """(name, node) for each module-level function, class or assignment whose
    name has one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_private_module_name_is_referenced():
    # A name counts as referenced only outside its own definition, so a
    # private function that calls itself and nothing else calls is dead.
    trees = {path.name: _tree(path) for path in PACKAGE}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if total[name] == _references(node)[name]]
    assert not dead, f"private module-level names referenced nowhere in src/qsym: {dead}"


def _public_methods(tree: ast.Module):
    """(name, node) for each public, non-dunder method or property of a
    module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            yield from ((node.name, node) for node in cls.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_"))


def test_every_public_method_is_referenced():
    # Only the package and the scripts count, each reference outside the
    # method's own body: a method that only the tests call is API that no
    # program path needs.
    trees = {path: _tree(path) for path in MODULES}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [f"{path.name}:{name}" for path in PACKAGE
            for name, node in _public_methods(trees[path])
            if total[name] == _references(node)[name]]
    assert not dead, f"public methods referenced nowhere in src/qsym or scripts/: {dead}"
