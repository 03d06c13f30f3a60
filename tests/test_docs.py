"""Documentation lint: links resolve, public modules are documented.

Cheap invariants that rot silently otherwise:

* every intra-repo link in the markdown docs points at a file that
  exists (renames and deletions break docs without failing any test);
* every public module under ``src/repro/`` carries a module docstring
  (the docs satellite of each PR depends on modules explaining
  themselves);
* the workload catalog (``docs/index.md``) stays live: it names every
  ``docs/`` page and every tier-1 smoke test, and every path it cites
  exists;
* the metric catalog (``docs/observability.md``) names exactly the
  families ``src/repro`` registers.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The markdown that makes documentation claims about the repo.
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "CONTRIBUTING.md", REPO / "DESIGN.md",
     REPO / "EXPERIMENTS.md", REPO / "ROADMAP.md"]
    + list((REPO / "docs").glob("*.md"))
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)]+)\)")


def intra_repo_links(path):
    """(target, link) pairs for every non-external markdown link."""
    out = []
    for link in _LINK_RE.findall(path.read_text()):
        target = link.split("#")[0]
        if not target or "://" in target or target.startswith("mailto:"):
            continue
        out.append(((path.parent / target).resolve(), link))
    return out


@pytest.mark.parametrize(
    "doc", [d for d in DOC_FILES if d.exists()], ids=lambda d: d.name
)
def test_intra_repo_links_resolve(doc):
    broken = [
        link for target, link in intra_repo_links(doc) if not target.exists()
    ]
    assert not broken, f"{doc.name}: broken links {broken}"


def test_doc_files_exist():
    """The load-bearing pages the README advertises must exist."""
    for name in ("README.md", "CONTRIBUTING.md", "docs/index.md",
                 "docs/architecture.md", "docs/observability.md",
                 "docs/fleet.md", "docs/streaming.md",
                 "docs/sessions.md"):
        assert (REPO / name).is_file(), f"missing {name}"


INDEX = REPO / "docs" / "index.md"


def test_workload_catalog_names_every_doc_page():
    """`docs/index.md` is the workload catalog; a subsystem page that
    never appears in it is invisible to readers, so adding a doc
    without cataloging it is an error."""
    catalog = INDEX.read_text()
    missing = [
        f"docs/{page.name}" for page in sorted((REPO / "docs").glob("*.md"))
        if page != INDEX and f"docs/{page.name}" not in catalog
    ]
    assert not missing, f"docs pages absent from the catalog: {missing}"


#: Backticked repo paths a page cites as files: anything under docs/,
#: tests/ or benchmarks/, and root-level ``BENCH_*.json`` records.  Not
#: "`BENCH_fleet.json`-style" (a format) and not the
#: ``--report BENCH_fleet.json`` CLI example (an output the user names).
_CITED_PATH_RE = re.compile(
    r"`((?:docs|tests|benchmarks)/[A-Za-z0-9_./-]+"
    r"|BENCH_[A-Za-z0-9_]+\.json)`(?!-)")


def test_workload_catalog_paths_exist():
    """Every backticked repo path the catalog cites (doc pages, smoke
    tests, benchmark runners, benchmark records) must exist — the
    catalog's whole value is that its pointers are live."""
    cited = _CITED_PATH_RE.findall(INDEX.read_text())
    assert cited, "the catalog cites no doc or test paths at all"
    dangling = [ref for ref in cited if not (REPO / ref).exists()]
    assert not dangling, f"catalog cites missing paths: {dangling}"


@pytest.mark.parametrize(
    "page", sorted(p for p in (REPO / "docs").glob("*.md") if p != INDEX),
    ids=lambda p: p.name,
)
def test_subsystem_pages_cite_paths_that_exist(page):
    """The same lint for every other ``docs/`` page: a runner or record
    that was retired must not live on in prose."""
    dangling = [ref for ref in _CITED_PATH_RE.findall(page.read_text())
                if not (REPO / ref).exists()]
    assert not dangling, f"{page.name} cites missing paths: {dangling}"


def test_workload_catalog_covers_every_tier1_smoke():
    """Every tier-1 smoke test file must be cataloged with its tier."""
    catalog = INDEX.read_text()
    missing = [
        f"tests/{smoke.name}"
        for smoke in sorted(REPO.glob("tests/test_*_smoke.py"))
        if f"tests/{smoke.name}" not in catalog
    ]
    assert not missing, f"smoke tests absent from the catalog: {missing}"


PUBLIC_MODULES = sorted(
    p for p in SRC.rglob("*.py") if not p.name.startswith("_")
    or p.name == "__init__.py"
)


@pytest.mark.parametrize(
    "module", PUBLIC_MODULES,
    ids=lambda p: str(p.relative_to(SRC)).replace("/", "."),
)
def test_public_modules_have_docstrings(module):
    tree = ast.parse(module.read_text())
    assert ast.get_docstring(tree), (
        f"{module.relative_to(REPO)} has no module docstring"
    )


#: Backtick-quoted ``docs/...`` path mentions (prose references that the
#: markdown-link lint above cannot see, e.g. "see `docs/observability.md`").
_DOC_PATH_RE = re.compile(r"`(docs/[A-Za-z0-9_./-]+\.md)`")


def doc_path_mentions(path):
    return _DOC_PATH_RE.findall(path.read_text())


@pytest.mark.parametrize(
    "source",
    [d for d in DOC_FILES if d.exists()] + sorted(SRC.rglob("*.py")),
    ids=lambda p: str(p.relative_to(REPO)),
)
def test_docs_path_mentions_resolve(source):
    """Prose and docstrings that name a ``docs/`` page must name one
    that exists — a rename otherwise leaves dangling pointers that no
    link checker catches."""
    dangling = [
        ref for ref in doc_path_mentions(source)
        if not (REPO / ref).is_file()
    ]
    assert not dangling, (
        f"{source.relative_to(REPO)}: dangling docs references {dangling}"
    )


def test_readme_test_count_is_not_stale():
    """The README's advertised test count must not exceed reality by
    omission: it claims "N+"; the suite only ever grows, so the claim
    goes stale only if N shrinks below a prior claim.  Parse the claim
    and sanity-check it against the number of collected test files as a
    coarse lower bound that still catches a forgotten update after a
    mass deletion."""
    text = (REPO / "README.md").read_text()
    match = re.search(r"(\d[\d,]*)\+ unit/integration/property tests", text)
    assert match, "README no longer states the test-suite size"
    claimed = int(match.group(1).replace(",", ""))
    assert claimed >= 650, "the claim regressed below the historic floor"


#: The pages that show CLI invocations to copy.
CLI_DOC_FILES = [d for d in DOC_FILES
                 if d.name not in ("EXPERIMENTS.md", "ROADMAP.md")]

_CLI_LINE_RE = re.compile(r"^(?:\$ )?(?:python -m repro\.cli|repro) (\S.*)$")


def cli_command_lines(path):
    """Argument strings of every ``python -m repro.cli ...`` /
    ``repro ...`` command line in ``path``: backslash continuations
    joined, trailing ``# comment`` dropped."""
    commands = []
    lines = iter(path.read_text().splitlines())
    for line in lines:
        match = _CLI_LINE_RE.match(line.strip())
        if not match:
            continue
        command = match.group(1)
        while command.endswith("\\"):
            command = command[:-1] + " " + next(lines).strip()
        commands.append(command.split(" #")[0].strip())
    return commands


def test_documented_cli_commands_parse():
    """Every command line the docs show must parse under the real
    parser, so a dropped or renamed flag fails here and not in a
    reader's terminal."""
    import shlex

    from repro.cli import _build_parser

    parser = _build_parser()
    commands = [(doc.name, command) for doc in CLI_DOC_FILES
                for command in cli_command_lines(doc)]
    assert len(commands) >= 31, "the docs lost their CLI examples"
    rejected = []
    for name, command in commands:
        try:
            parser.parse_args(shlex.split(command))
        except SystemExit:
            rejected.append(f"{name}: repro {command}")
    assert not rejected, f"documented commands the CLI rejects: {rejected}"


# -- the metric catalog ------------------------------------------------------------

OBSERVABILITY = REPO / "docs" / "observability.md"
_CATALOG_ROW_RE = re.compile(r"^\| `([a-z][a-z0-9_]*)` \|")


def registered_metric_names():
    """Every family name ``src/repro`` registers under a literal name:
    the first argument of ``exported("...", help)`` on a ledger field
    and of ``<registry>.counter/gauge/histogram("...", ...)``."""
    names = {}
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "metrics" in path.parents:
            continue  # the mechanism registers nothing of its own
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "exported"
                    or isinstance(func, ast.Attribute)
                    and func.attr in ("counter", "gauge", "histogram")):
                names.setdefault(node.args[0].value,
                                 str(path.relative_to(REPO)))
    return names


def catalogued_metric_names():
    """First-column names of the catalog tables in
    ``docs/observability.md`` (from "Metrics catalog" to "Snapshots")."""
    text = OBSERVABILITY.read_text()
    catalog = text[text.index("## Metrics catalog"):text.index("## Snapshots")]
    return {match.group(1) for line in catalog.splitlines()
            if (match := _CATALOG_ROW_RE.match(line))}


def test_metric_catalog_matches_what_src_registers():
    """CONTRIBUTING asks that a new metric be added to the catalog;
    this is what checks it, both ways."""
    registered = registered_metric_names()
    catalogued = catalogued_metric_names()
    assert len(registered) >= 90, "the walk lost sight of the registrations"
    missing = {name: where for name, where in registered.items()
               if name not in catalogued}
    assert not missing, f"registered but not in the catalog: {missing}"
    stale = sorted(catalogued - set(registered))
    assert not stale, f"catalogued but registered nowhere in src/: {stale}"
