"""Every function and class in the package serves a reader outside tests.

A def or class name of src/finslerlab must occur as a whole word in the
package beyond the lines that define it (a call, an import, a table
entry, the package exports), in a benchmark script (perfbench/*.py,
which hooks library names) or in a demo.  A name that only tests read
is a second route or a helper kept for them: it belongs in tests/,
where the test suite's own oracles live.  The sources are read as text;
nothing is imported from them.

Every name an import binds in a module of the package (its __init__,
which imports to re-export, aside) or of the tests is read in that
module: the sources are parsed, and an import is read when the name it
binds occurs as a name in the module's code.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finslerlab"
DEFINITION = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+(\w+)", re.MULTILINE)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_has_a_reader_outside_tests():
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    defined = {}
    for path, text in sources.items():
        for match in DEFINITION.finditer(text):
            if not _is_dunder(match.group(1)):
                defined.setdefault(match.group(1), []).append(path.name)
    # every line that defines a name is left out, so that a name defined
    # twice (a function and a method) does not read itself
    readers = "\n".join(
        line
        for text in sources.values()
        for line in text.splitlines()
        if not DEFINITION.match(line)
    )
    readers += "\n" + "\n".join(
        path.read_text()
        for folder in ("perfbench", "demos")
        for path in sorted((ROOT / folder).glob("*.py"))
    )
    unread = sorted(
        "%s (%s)" % (name, ", ".join(files))
        for name, files in defined.items()
        if not re.search(r"\b%s\b" % re.escape(name), readers)
    )
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
