"""Dead-name lint: what ``src/repro`` defines, the program must use.

An ``ast`` walk collects every module-level function, class and
constant and every method or property defined in ``src/repro``, then
every identifier the code in ``src/``, ``benchmarks/``, ``examples/``,
``tools/`` (the program) and ``tests/`` reads: a bare name, an
attribute, a keyword argument, an imported name, a string handed to a
call as a positional argument (``getattr(obj, "name")``, or a profiler
patching ``"name"`` on a class).  Dunders are exempt (the interpreter
calls them), and ``Protocol`` members need no exemption, each is read
where it is called.  Re-export does not count as use - neither the
``from .x import name`` of a package ``__init__`` nor a string in
``__all__``.

Three rules:

* A definition that nothing reads is dead.
* A definition that only ``tests/`` reads is code a reader has to
  understand and nothing runs: it gets a caller in the program or goes,
  with the tests that only exercise it.  The exceptions are ``KEEP``,
  each with the reason it stays.
* A name a module of ``src/repro`` imports, the module reads: in its
  code, in a string annotation, or in its ``__all__``.
"""

import ast
import functools
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
PROGRAM = [REPO / "src", REPO / "benchmarks", REPO / "examples",
           REPO / "tools"]
TESTS = [REPO / "tests"]

#: Names in ``src/repro`` that only tests read, and why each stays.
KEEP = {
    "_index": "the reference the inlined Histogram.observe is compared "
              "against",
    "decode_value": "encode_value's inverse, the round trip the wire "
                    "codec's byte oracle is checked through",
    "emit_chunk": "documented SUT-author API: how a streaming SUT sends "
                  "a chunk down the responder channel",
    "ideal_translation": "the noiseless cipher, the reference the "
                         "translator tests compare against",
    "numerical_gradient": "the central-difference reference the "
                          "backprop tests compare analytic gradients "
                          "against",
}

#: Test-only names still to be given a caller or deleted.
PENDING = set()


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
        elif isinstance(node, ast.Call):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value,
                                                                str):
                    yield arg.value


@functools.lru_cache(maxsize=None)
def _read_by(roots):
    read = set()
    for root in roots:
        for path in root.rglob("*.py"):
            read.update(names_read(ast.parse(path.read_text()),
                                   reexports=path.name == "__init__.py"))
    return frozenset(read)


def _defined():
    """``("path:lineno", name)`` of every non-dunder definition."""
    for path in sorted(SRC.rglob("*.py")):
        for name, lineno in definitions(ast.parse(path.read_text())):
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{path.relative_to(REPO)}:{lineno}", name


def test_a_name_handed_over_as_a_string_is_read():
    snippet = 'span(QueryLog, "record_completion", "core.logging", "record", 1)'
    assert "record_completion" in set(names_read(ast.parse(snippet), False))


def test_everything_src_defines_is_read_somewhere():
    read = _read_by(tuple(PROGRAM)) | _read_by(tuple(TESTS))
    dead = [f"{where} {name}" for where, name in _defined()
            if name not in read]
    assert not dead, "defined in src/repro, read nowhere:\n" + "\n".join(dead)


def test_nothing_src_defines_is_read_only_by_tests():
    program, tests = _read_by(tuple(PROGRAM)), _read_by(tuple(TESTS))
    test_only = [(where, name) for where, name in _defined()
                 if name in tests and name not in program]
    stale = (set(KEEP) | PENDING) - {name for _, name in test_only}
    assert not stale, ("KEEP / PENDING names no longer read only by "
                       "tests:\n" + "\n".join(sorted(stale)))
    unexcused = [f"{where} {name}" for where, name in test_only
                 if name not in KEEP and name not in PENDING]
    assert not unexcused, (
        "defined in src/repro, read only by tests/ (give it a caller, "
        "delete it, or KEEP it with a reason):\n" + "\n".join(unexcused))


def _annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (arguments.posonlyargs + arguments.args
                        + arguments.kwonlyargs
                        + [arguments.vararg, arguments.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(tree):
    """``(name, lineno)`` of what ``tree`` imports and never reads.  A
    name counts as read in code, inside a string annotation
    (``"Optional[Replica]"``) and as a string in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = (
                    node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(n.id for n in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(e.value for e in ast.walk(node.value)
                        if isinstance(e, ast.Constant))
    return sorted((lineno, name) for name, lineno in imported.items()
                  if name not in read)


def test_unused_imports_are_found_and_string_annotations_read():
    snippet = (
        "from typing import Iterable, List, Optional\n"
        "import os.path\n"
        "from .x import Replica, Gone\n"
        "from .y import Exported\n"
        "__all__ = ['Exported']\n"
        "def f(r: 'Optional[Replica]') -> List[int]:\n"
        "    return os.path.sep\n")
    assert unused_imports(ast.parse(snippet)) == [(1, "Iterable"),
                                                  (3, "Gone")]


def test_every_import_in_src_is_read():
    unused = [f"{path.relative_to(REPO)}:{lineno} {name}"
              for path in sorted(SRC.rglob("*.py"))
              for lineno, name in unused_imports(ast.parse(path.read_text()))]
    assert not unused, "imported in src/repro, never read:\n" + "\n".join(
        unused)
