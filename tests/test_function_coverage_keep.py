"""The ``KEEP`` table of ``tools/function_coverage.py``, checked statically.

The tool traces the program paths for minutes, so tier-1 does not run
it; what tier-1 can check without running anything is the table the
check reads - every key names a function that exists in ``src/repro``,
says why it stays, and is not already exempt by rule - and the rule
itself, on literal functions.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "function_coverage", REPO / "tools" / "function_coverage.py")
coverage = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(coverage)


def _functions_by_key():
    found = {}
    for path in sorted(coverage.SRC.rglob("*.py")):
        for name, _, _, why in coverage.functions(path):
            found[f"{path.relative_to(REPO)}:{name}"] = why
    return found


def test_every_keep_entry_names_a_function_that_needs_one():
    functions = _functions_by_key()
    missing = [key for key in coverage.KEEP if key not in functions]
    assert not missing, "KEEP names no function in src/repro:\n" + "\n".join(
        missing)
    exempt = [f"{key} ({functions[key]})" for key in coverage.KEEP
              if functions[key]]
    assert not exempt, "KEEP entries exempt by rule:\n" + "\n".join(exempt)
    unexplained = [key for key, reason in coverage.KEEP.items()
                   if not reason.strip()]
    assert not unexplained, "KEEP entries with no reason:\n" + "\n".join(
        unexplained)


def _exemption(source):
    return coverage.exempt(ast.parse(source).body[0])


@pytest.mark.parametrize("source", [
    "def f(self):\n    ...",
    "def f(self):\n    pass",
    "def f(self):\n    '''Docstring only.'''",
    "def f(self):\n    '''Doc.'''\n    raise NotImplementedError",
    "def f(self):\n    raise NotImplementedError('subclass it')",
    "async def f(self):\n    ...",
])
def test_a_body_that_only_declares_is_exempt(source):
    assert _exemption(source) == "declaration"


@pytest.mark.parametrize("source", ["def __repr__(self):\n    return 'x'",
                                    "def __len__(self):\n    return 0"])
def test_a_dunder_is_exempt(source):
    assert _exemption(source) == "dunder"


@pytest.mark.parametrize("source", [
    "def __init__(self):\n    self.x = 1",
    "def f(self):\n    return 1",
    "def f(self):\n    '''Doc.'''\n    return None",
    "def f(self):\n    raise ValueError('no')",
    "def f(self):\n    raise NotImplementedError\n    return 1",
    "def f(self):\n    '''Doc.'''\n    'not a docstring'",
])
def test_a_body_that_runs_is_not_exempt(source):
    assert _exemption(source) is None


def test_functions_attribute_lines_to_the_innermost_function(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class C:\n"
        "    @property\n"
        "    def p(self):\n"
        "        '''Doc.'''\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n"
        "    def q(self):\n"
        "        ...\n")
    assert coverage.functions(path) == [
        ("C.p", 2, {5, 7}, None),  # the def line runs in C.p
        ("C.p.inner", 5, {6}, None),
        ("C.q", 8, {9}, "declaration"),
    ]


def test_a_name_defined_twice_in_one_scope_is_told_apart(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def run(many):\n"
        "    if many:\n"
        "        def busy():\n"
        "            return 2\n"
        "    else:\n"
        "        def busy():\n"
        "            return 1\n"
        "    return busy\n")
    assert [(name, first) for name, first, _, _ in coverage.functions(path)] \
        == [("run", 1), ("run.busy", 3), ("run.busy#2", 6)]
