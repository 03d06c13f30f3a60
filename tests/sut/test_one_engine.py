"""Lint: one simulated device engine.

``SimulatedSUT`` (``sut/simulated.py``) is the one engine that queues,
batches and prices simulated work; a multitenant run is its
co-tenants.  An ``ast`` walk over ``src/repro`` finds every use of the
engine's two pricing seams - ``DeviceModel.cost_at`` (the cost
formula) and ``chunk_costs`` (query intake) - outside it, so a second
engine cannot grow back unseen.  ``DeviceModel.service_time`` and
``dispatch_energy``, the cost formula's two dense-CNN halves, are the
exemptions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

SEAMS = {"cost_at", "chunk_costs"}

ENGINE = "sut/simulated.py"

#: (module, function) pairs outside the engine allowed to use a seam.
EXEMPT = {("sut/device.py", "service_time"),
          ("sut/device.py", "dispatch_energy")}


class _Uses(ast.NodeVisitor):
    """(function, seam, line) for each use of a seam in one module."""

    def __init__(self) -> None:
        self.function = "<module>"
        self.sites = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _seam(self, name, node):
        if name in SEAMS:
            self.sites.append((self.function, name, node.lineno))

    def visit_Attribute(self, node):
        self._seam(node.attr, node)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._seam(node.id, node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._seam(alias.name, node)


def seam_uses():
    """module -> [(function, seam, line)] over every module in the package."""
    uses = {}
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Uses()
        visitor.visit(ast.parse(path.read_text()))
        if visitor.sites:
            uses[path.relative_to(SRC).as_posix()] = visitor.sites
    return uses


def test_only_the_engine_prices_simulated_work():
    outside = [f"{module}:{line} ({function}) uses {seam}"
               for module, sites in seam_uses().items() if module != ENGINE
               for function, seam, line in sites
               if (module, function) not in EXEMPT]
    assert outside == []


def test_the_walk_finds_the_engine():
    assert {seam for _, seam, _ in seam_uses()[ENGINE]} == SEAMS
