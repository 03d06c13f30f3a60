"""Submission data model, checker, review pipeline, and reporting."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "artifacts": (
        "check_submission_dir", "read_submission_dir", "write_submission",
    ),
    "checker": ("CheckReport", "Issue", "Severity", "check_submission"),
    "reporting": ("format_submission",),
    "review": ("ReviewOutcome", "ReviewSummary", "review_round"),
    "schema": (
        "APPROVED_NUMERICS", "BenchmarkResult", "Category", "Division",
        "Submission", "SystemDescription",
    ),
})
