"""Lint: one run loop and one stack builder.

``core/loadgen.py`` holds the only build -> start -> loop -> judge:
``run_benchmark`` runs one tenant on it and ``run_tenants`` several, so
nothing else in ``src/repro`` builds a scenario driver or judges a log.
``harness/stack.py``'s ``build`` is the only place a wire is assembled,
so nothing else constructs the network client or the simulated channel.
An ``ast`` walk over the package finds every call of those names, so a
second loop or a hand-wired wire cannot grow back unseen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Callee name -> the one module allowed to call it.
HOMES = {
    "make_driver": "core/loadgen.py",
    "judge": "core/loadgen.py",
    "NetworkSUT": "harness/stack.py",
    "SimulatedChannelSUT": "harness/stack.py",
}


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def call_sites():
    """callee -> [(module, line)] over every module in the package."""
    sites = {name: [] for name in HOMES}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _callee(node) in HOMES:
                sites[_callee(node)].append((module, node.lineno))
    return sites


def test_only_the_loadgen_runs_loops_and_only_build_wires_stacks():
    outside = [f"{module}:{line} calls {name}"
               for name, found in call_sites().items()
               for module, line in found if module != HOMES[name]]
    assert outside == []


def test_the_walk_finds_each_home():
    assert {name: {module for module, _ in found}
            for name, found in call_sites().items()} == {
        name: {home} for name, home in HOMES.items()}
