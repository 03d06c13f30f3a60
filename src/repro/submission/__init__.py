"""Submission data model, checker, review pipeline, and reporting."""

from .artifacts import (
    check_submission_dir,
    read_submission_dir,
    write_submission,
)
from .checker import CheckReport, Issue, Severity, check_submission
from .reporting import format_submission
from .review import ReviewOutcome, ReviewSummary, review_round
from .schema import (
    APPROVED_NUMERICS,
    BenchmarkResult,
    Category,
    Division,
    Submission,
    SystemDescription,
)

__all__ = [
    "APPROVED_NUMERICS",
    "BenchmarkResult",
    "Category",
    "CheckReport",
    "Division",
    "Issue",
    "ReviewOutcome",
    "ReviewSummary",
    "Severity",
    "Submission",
    "SystemDescription",
    "check_submission",
    "check_submission_dir",
    "read_submission_dir",
    "write_submission",
    "format_submission",
    "review_round",
]
