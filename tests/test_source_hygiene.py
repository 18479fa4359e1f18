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


def _class_references(trees: list, names: set) -> list:
    """(class, name, function) for each ``<receiver>.<name>`` read, name in names,
    inside a module-level function or method of the trees whose receiver's qsym
    class is evident: ``self`` (the first parameter of a method), a class or a
    call of one, a parameter annotated with one class, a call of a function or
    method whose return annotation names one class, an attribute that the
    class's methods assign only such values, or a local name that every
    assignment binds to one such class."""
    classes = {c.name for tree in trees for c in tree.body if isinstance(c, ast.ClassDef)}
    funcs = [(f, c.name if f is not c else None) for tree in trees for c in tree.body
             for f in (c.body if isinstance(c, ast.ClassDef) else [c])
             if isinstance(f, ast.FunctionDef)]

    def one(found):
        return next(iter(found)) if len(found) == 1 else None

    def named(annotation):
        return one({n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)} & classes
                   if annotation else ())

    returns, attrs = {}, {}  # name -> the classes its definitions return or are assigned
    for f, _ in funcs:
        returns.setdefault(f.name, set()).add(named(f.returns))

    def of(node, env):
        if isinstance(node, ast.Name):
            return node.id if node.id in classes else env.get(node.id)
        if isinstance(node, ast.Attribute):
            return one(attrs.get((of(node.value, env), node.attr), ()))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            return name if name in classes else one(returns.get(name, ()))
        return None

    def bindings(f):
        for node in ast.walk(f):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        yield from zip(t.elts, node.value.elts)
                    else:
                        yield t, node.value

    envs = {}
    for f, cls in funcs:  # parameters and locals, then the attributes methods assign
        env = envs[f] = {a.arg: named(a.annotation) for a in f.args.args}
        if cls and f.args.args:
            env[f.args.args[0].arg] = cls
        bound = {}
        for t, v in bindings(f):
            if isinstance(t, ast.Name):
                bound.setdefault(t.id, set()).add(of(v, env))
        env.update({k: one(v) for k, v in bound.items()})
        for t, v in bindings(f):
            if cls and isinstance(t, ast.Attribute) and of(t.value, env) == cls:
                attrs.setdefault((cls, t.attr), set()).add(of(v, env))
    return [(of(node.value, envs[f]), node.attr, f) for f, _ in funcs for node in ast.walk(f)
            if isinstance(node, ast.Attribute) and node.attr in names
            and of(node.value, envs[f])]


def test_every_public_method_is_referenced():
    # Only the package and the scripts count, each reference outside the
    # method's own body: a method that only the tests call is API that no
    # program path needs.  A name that several classes define counts for one
    # of them only where the receiver's class is evident (_class_references),
    # so that no method hides behind another class's method of the same name.
    trees = {path: _tree(path) for path in MODULES}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    owners = Counter(name for path in PACKAGE for name, _ in _public_methods(trees[path]))
    shared = {name for name, count in owners.items() if count > 1}
    resolved = _class_references(list(trees.values()), shared)
    dead = []
    for path in PACKAGE:
        for cls in trees[path].body:
            if isinstance(cls, ast.ClassDef):
                for name, node in _public_methods(ast.Module([cls], [])):
                    if name in shared:
                        used = any(c == cls.name and n == name and f is not node
                                   for c, n, f in resolved)
                    else:
                        used = total[name] > _references(node)[name]
                    if not used:
                        dead.append(f"{path.name}:{cls.name}.{name}")
    assert not dead, f"public methods referenced nowhere in src/qsym or scripts/: {dead}"
