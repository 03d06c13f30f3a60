"""``tools/function_coverage.py`` tells a real failure from the hook's
cost: a command that fails under the trace hook runs again without it,
and its failure is labelled by what the second run did."""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "function_coverage", REPO / "tools" / "function_coverage.py")
coverage = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(coverage)


def _stub(code):
    return [sys.executable, "-c", code]


def test_a_failure_is_labelled_by_its_untraced_run(tmp_path):
    passes = _stub("pass")
    always = _stub("raise SystemExit(3)")
    traced_only = _stub(
        f"import os, sys; sys.exit(4 if os.environ.get({coverage.ENV!r}) "
        "else 0)")
    failed = coverage.run_traced([passes, always, traced_only], tmp_path)
    assert failed == [(always, 3, "fails untraced too"),
                      (traced_only, 4, "fails only under the hook")]
