"""Every function and class in the package serves a reader outside tests.

A def or class of src/finslerlab must be read by code of the package, of
a benchmark script (perfbench/*.py, which hooks library names) or of a
demo, outside the def's own body.  A name that only tests read is a
second route or a helper kept for them: it belongs in tests/, where the
test suite's own oracles live.  The sources are parsed; nothing is
imported from them.  A def is read only through

- a Name that loads it: one that no enclosing function binds as a
  variable, so a local variable of the same name reads nothing;
- an Attribute of its name (a method, or a module's function);
- an import alias of its name (the package's exports among them);
- a string constant that is no docstring and names it, alone or as the
  last part of a dotted path (getattr(self, "_jet"), a benchmark hook's
  "engine.metric_series").

Comments and docstrings read nothing.

Every name an import binds in a module of the package (its __init__,
which imports to re-export, aside) or of the tests is read in that
module: an import is read when the name it binds occurs as a name in
the module's code.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finslerlab"
READERS = [PACKAGE] + [ROOT / folder for folder in ("perfbench", "demos")]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _docstrings(tree):
    """The string constants that are docstrings."""
    owners = [tree] + [n for n in ast.walk(tree) if isinstance(n, DEFS)]
    return {
        id(owner.body[0].value)
        for owner in owners
        if owner.body
        and isinstance(owner.body[0], ast.Expr)
        and isinstance(owner.body[0].value, ast.Constant)
        and isinstance(owner.body[0].value.value, str)
    }


def _bound(scope):
    """The variables a function or lambda binds: its arguments and every
    name stored or imported within it, nested scopes included, less the
    names of the defs within it (a Name that loads one of those may read
    the def)."""
    args = scope.args
    names = {
        a.arg
        for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        if a is not None
    }
    defs = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, DEFS) and node is not scope:
            defs.add(node.name)
    return names - defs


def _reads(tree):
    """(name, enclosing) for every read of a name in the module tree:
    the name read and the def nodes around the reader."""
    docstrings = _docstrings(tree)
    out = []

    def visit(node, enclosing, bound):
        if isinstance(node, SCOPES):
            bound = bound | _bound(node)
        if isinstance(node, DEFS):
            enclosing = enclosing + (node,)
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = None if node.id in bound else node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                name = node.value.rsplit(".", 1)[-1]
        if name is not None:
            out.append((name, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, bound)

    visit(tree, (), frozenset())
    return out


def unread_definitions(folders=READERS):
    """"name (file)" of every def or class of the package, the first
    folder, that no code of the folders reads outside its own body."""
    trees = {
        path: ast.parse(path.read_text())
        for folder in folders
        for path in sorted(folder.glob("*.py"))
    }
    reads = {}
    for tree in trees.values():
        for name, enclosing in _reads(tree):
            reads.setdefault(name, []).append(enclosing)
    return sorted(
        "%s (%s)" % (node.name, path.name)
        for path, tree in trees.items()
        if path.parent == folders[0]
        for node in ast.walk(tree)
        if isinstance(node, DEFS) and not _is_dunder(node.name)
        if not any(node not in enclosing for enclosing in reads.get(node.name, ()))
    )


def test_every_definition_has_a_reader_outside_tests():
    unread = unread_definitions()
    assert not unread, "no reader outside tests: " + "; ".join(unread)


def _unread_imports(path):
    """Names that path's import statements bind and its code never reads.

    An import marked "noqa: F401" is kept for a reader elsewhere (a
    benchmark hook that wraps the name where it is imported).
    """
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s:%d %s" % (path.name, line, name)
                  for name, line in bound.items() if name not in read)


def test_every_import_is_read():
    # the package's __init__ imports to re-export, so it is left out
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unread = [entry for path in paths for entry in _unread_imports(path)]
    assert not unread, "imported and never read: " + "; ".join(unread)
