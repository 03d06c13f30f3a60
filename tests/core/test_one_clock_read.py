"""One clock read: every module reads the time as ``loop.clock.now()``.

An ``ast`` walk over ``src/repro`` (``core/events.py`` aside, which owns
the clocks) looks for two things:

* a read of the virtual clock's private time, ``._cell`` or the
  ``._now`` it replaced;
* a branch on ``.realtime`` whose only job is to read a clock: an ``x if
  <realtime> else y`` with a clock read in either arm, or an ``if
  <realtime>:`` whose arms only assign, a clock read among them.

``VirtualClock.now`` runs no Python frame, as ``WallClock.now``
(``time.monotonic``) runs none, so neither clock needs reading another
way.  A private read inside a ``.realtime`` branch is counted with that
branch.  The ``.realtime`` branches that change behaviour (sleep or
advance, the past-time clamp, the janitor, the attempt engine's
once-per-instant yield, ``ParallelSUT._duration``, ``NetworkSUT``'s
guard) read no clock alone, and stay.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

#: The module that owns the clocks and may read their insides.
OWNER = Path("core") / "events.py"

_PRIVATE = ("_cell", "_now")


def _realtime_test(node):
    """``x.realtime``, ``not x.realtime``, or either ``and``-ed in."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return _realtime_test(node.operand)
    if isinstance(node, ast.BoolOp):
        return any(_realtime_test(value) for value in node.values)
    return isinstance(node, ast.Attribute) and node.attr == "realtime"


def _clock_read(node):
    """``<x>.now`` (the loop's property), ``<x>.now()``, or a private
    read of the virtual time."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Attribute) and (
        node.attr == "now" or node.attr in _PRIVATE)


def _only_reads_a_clock(node):
    """A ``.realtime`` branch whose only job is to read a clock."""
    if isinstance(node, ast.IfExp):
        return _clock_read(node.body) or _clock_read(node.orelse)
    stmts = (*node.body, *node.orelse)
    return (all(isinstance(stmt, ast.Assign) for stmt in stmts)
            and any(_clock_read(stmt.value) for stmt in stmts))


def clock_forks(source):
    """``(lineno, what)`` of each site in ``source`` that reads the time
    other than as ``loop.clock.now()``."""
    found = {}

    def visit(node, branch):
        if (isinstance(node, (ast.If, ast.IfExp))
                and _realtime_test(node.test)):
            branch = node
            if _only_reads_a_clock(node):
                found[node] = "a .realtime branch that only reads a clock"
        if isinstance(node, ast.Attribute) and node.attr in _PRIVATE:
            site = branch if branch is not None else node
            found.setdefault(site, f"a read of the private .{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, branch)

    visit(ast.parse(source), None)
    return sorted((node.lineno, what) for node, what in found.items())


def test_the_lint_sees_each_shape_of_clock_fork():
    snippet = '''
def forks(loop, query):
    a = loop.clock.now() if loop.realtime else loop.clock._now
    b = loop.clock.now() if loop.realtime else query.issue_time
    if loop.realtime:
        now = loop.clock.now()
    if not loop.realtime:
        now = query.issue_time
    else:
        now = loop.clock.now()
    if not loop.realtime and loop.clock._now > 1.0:
        loop.stop()
        last = loop.clock._now
    c = loop.clock._cell[0]


def keeps(loop, elapsed, now):
    a = loop.clock.now()
    b = 0.0 if loop.realtime else elapsed
    if not loop.realtime and now > 1.0:
        loop.schedule(now, loop.stop)
    if loop.realtime:
        raise ValueError("needs a virtual loop")
    if not loop.realtime:
        now = loop.clock.now()
        loop.schedule(now, loop.stop)
'''
    assert [line for line, _ in clock_forks(snippet)] == [3, 4, 5, 7, 11, 14]


def test_every_module_reads_the_time_one_way():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC) == OWNER:
            continue
        for line, what in clock_forks(path.read_text()):
            offenders.append(f"{path.relative_to(SRC)}:{line}: {what}")
    assert offenders == [], (
        "read the time as loop.clock.now() (it runs no Python frame on "
        "either clock):\n" + "\n".join(offenders))
