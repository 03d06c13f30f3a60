"""Import budget: a command loads the modules it uses and no others.

Every interpreter start compiles each module it imports when bytecode
is not cached (``PYTHONDONTWRITEBYTECODE``), so the modules a command
loads are its start-up time.  A ``repro serve`` child echoing integers
needs the CLI, the server and the echo SUT: no numpy, and none of the
packages that model, fault, replicate or stream a run.  The benchmark
child's harness, ``repro.harness.experiments``, loads neither the
inference server nor the models until a run asks for them.
"""

import json

from tests.test_package_exports import run_child

#: What the serve child must not load, by top-level name.
NOT_FOR_SERVE = ("numpy", "repro.models", "repro.faults", "repro.fleet",
                 "repro.harness", "repro.durability", "repro.sessions",
                 "repro.streaming")


def loaded_by(statement: str) -> list:
    """Every module in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    return json.loads(run_child(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def under(modules, packages):
    return [name for name in modules
            if any(name == package or name.startswith(package + ".")
                   for package in packages)]


def test_the_serve_child_loads_no_numpy_and_no_unused_package():
    loaded = loaded_by("import repro.cli, repro.network.server, repro.sut.echo")
    assert under(loaded, NOT_FOR_SERVE) == []


def test_the_core_package_loads_no_numpy():
    assert under(loaded_by("import repro.core"), ("numpy",)) == []


def test_the_experiments_harness_loads_no_server_and_no_models():
    """The benchmark child drives ``repro.harness.experiments``; the
    inference server and the model zoo load only when a run of theirs
    asks for them."""
    loaded = loaded_by("import repro.harness.experiments")
    assert under(loaded, ("repro.network.server", "repro.models")) == []
