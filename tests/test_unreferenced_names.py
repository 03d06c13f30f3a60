"""Dead-name lint: what ``src/repro`` defines, something must use.

An ``ast`` walk collects every module-level function, class and
constant and every method or property defined in ``src/repro``, then
every identifier the code in ``src/``, ``tests/``, ``benchmarks/`` and
``examples/`` reads: a bare name, an attribute, a keyword argument, an
imported name, the string handed to ``getattr``.  A definition that
nothing reads is dead; dunders are exempt (the interpreter calls them),
and ``Protocol`` members need no exemption, each is read where it is
called.  Re-export does not count as use - neither the
``from .x import name`` of a package ``__init__`` nor a string in
``__all__`` - and a name used only by its own unit test passes: that is
a judgement for a reader (``tools/function_coverage.py`` says which
functions the suite enters), not for a lint.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
READERS = [REPO / "src", REPO / "tests", REPO / "benchmarks",
           REPO / "examples"]


def definitions(tree):
    """``(name, lineno)`` of what a module defines at its top level and
    in its class bodies (methods and properties; fields are data)."""
    def named(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno

    for node in tree.body:
        yield from named(node)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    yield member.name, member.lineno


def names_read(tree, reexports):
    """Every identifier ``tree`` reads.  ``reexports`` (a package
    ``__init__``) leaves ``from .x import name`` out: handing a name on
    is not using it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.ImportFrom) and not reexports:
            for alias in node.names:
                yield alias.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_everything_src_defines_is_read_somewhere():
    read = set()
    for root in READERS:
        for path in root.rglob("*.py"):
            read.update(names_read(ast.parse(path.read_text()),
                                   reexports=path.name == "__init__.py"))
    dead = []
    for path in sorted(SRC.rglob("*.py")):
        for name, lineno in definitions(ast.parse(path.read_text())):
            if name.startswith("__") and name.endswith("__") or name in read:
                continue
            dead.append(f"{path.relative_to(REPO)}:{lineno} {name}")
    assert not dead, "defined in src/repro, read nowhere:\n" + "\n".join(dead)
