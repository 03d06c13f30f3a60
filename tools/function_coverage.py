#!/usr/bin/env python3
"""Which functions of ``src/repro`` does a command never enter?

The environment has neither ``coverage`` nor ``vulture``, so this is
function-level coverage from what the interpreter ships: a
``sys.settrace`` hook that notes the first *call* of every code object
under ``src/repro`` and declines to trace lines (cheap enough for the
whole tier-1 suite).  The hook is loaded through a ``sitecustomize``
module on ``PYTHONPATH``, so it is live in every interpreter the
command starts - pytest itself, forked and spawned worker processes,
CLI children - and each process appends what it enters to its own file
as it goes (a killed worker loses nothing).

    python tools/function_coverage.py                       # tier-1
    python tools/function_coverage.py --keep /tmp/cov -- \\
        python -m pytest -q benchmarks --benchmark-disable   # add to it
    python tools/function_coverage.py --keep /tmp/cov --report-only

The report attributes every function-body line (docstrings aside) to
its innermost function and prints the functions never entered, largest
first, with the share of body lines they hold.  It is a reading aid,
not a gate: ``tests/test_unreferenced_names.py`` is the lint.  Edit no
source while it runs - the report matches calls to functions by the
line they start on.
"""

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ENV = "REPRO_FUNCTION_COVERAGE"

#: The hook, written out as ``sitecustomize.py``.  ``{env}`` names the
#: directory the per-process files go to, ``{prefix}`` what to record.
HOOK = '''
import os, sys, threading

_dir = os.environ.get("{env}")
if _dir:
    _prefix = "{prefix}"
    _seen = set()
    _out = None

    def _reopen():
        global _out
        _out = open(os.path.join(_dir, "%d.calls" % os.getpid()), "a",
                    buffering=1)

    def _hook(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_prefix):
                _out.write("%s:%d\\n" % (code.co_filename,
                                         code.co_firstlineno))
        return None  # calls only: no line events for this frame

    _reopen()
    os.register_at_fork(after_in_child=_reopen)
    threading.settrace(_hook)
    sys.settrace(_hook)
'''


def run_traced(command, out_dir):
    """Run ``command`` with the hook live in it and in its children."""
    with tempfile.TemporaryDirectory() as site:
        Path(site, "sitecustomize.py").write_text(
            HOOK.format(env=ENV, prefix=str(SRC)))
        env = dict(os.environ)
        env[ENV] = str(out_dir)
        env["PYTHONPATH"] = os.pathsep.join(
            [site, str(REPO / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return subprocess.call(command, cwd=REPO, env=env)


def entered(out_dir):
    """``{(filename, first line)}`` over every process's file."""
    calls = set()
    for path in Path(out_dir).glob("*.calls"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            calls.add((filename, int(lineno)))
    return calls


def functions(path):
    """``(qualified name, first line, body lines)`` of every function in
    ``path``.  A line belongs to the innermost function around it, a
    docstring to none, and the first line is the one
    ``co_firstlineno`` reports (a decorator's, if there is one)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if (isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                lines = set()
                for statement in body:
                    lines.update(range(statement.lineno,
                                       statement.end_lineno + 1))
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((f"{scope}{child.name}", first, lines))
                nested_from = len(found)
                visit(child, f"{scope}{child.name}.")
                for _, _, inner in found[nested_from:]:
                    lines -= inner
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def report(out_dir):
    calls = entered(out_dir)
    total = missed_lines = 0
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        for name, first, lines in functions(path):
            total += len(lines)
            if (str(path), first) not in calls:
                missed_lines += len(lines)
                missed.append((len(lines), f"{path.relative_to(REPO)}:{first}",
                               name))
    for size, where, name in sorted(missed, reverse=True):
        print(f"{size:5d}  {where}  {name}")
    print(f"\nnever entered: {len(missed)} functions, {missed_lines} of "
          f"{total} function-body lines "
          f"({100.0 * missed_lines / max(total, 1):.1f}%)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--keep", metavar="DIR",
        help="collect into DIR and leave it there, so several commands "
             "add up (default: a temporary directory)")
    parser.add_argument(
        "--report-only", action="store_true",
        help="run nothing; report what --keep DIR already holds")
    parser.add_argument(
        "command", nargs="*",
        help="the command to trace (default: the tier-1 suite)")
    args = parser.parse_args(argv)
    if args.report_only and not args.keep:
        parser.error("--report-only needs --keep DIR")
    command = args.command or [sys.executable, "-m", "pytest", "-q"]
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(args.keep or scratch)
        out_dir.mkdir(parents=True, exist_ok=True)
        status = 0 if args.report_only else run_traced(command, out_dir)
        report(out_dir)
    return status


if __name__ == "__main__":
    sys.exit(main())
