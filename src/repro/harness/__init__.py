"""Experiment harnesses: capacity tuning, fleet sweeps, table formatters."""

from .multitenant import TenantSpec, all_tenants_valid, run_multitenant
from .report import generate_report
from .experiments import (
    FLEET_SCALE,
    SubmissionRecord,
    relative_performance,
    result_matrix,
    results_per_processor,
    results_per_task,
    run_fleet,
    run_submission,
    server_offline_ratios,
)
from .tuning import (
    FULL_SCALE,
    QUICK_SCALE,
    RunScale,
    TunedResult,
    find_max_burst_rate,
    find_max_multistream_n,
    find_max_server_qps,
    measure_offline,
    measure_single_stream,
)

__all__ = [
    "FLEET_SCALE",
    "FULL_SCALE",
    "QUICK_SCALE",
    "RunScale",
    "SubmissionRecord",
    "TenantSpec",
    "TunedResult",
    "find_max_burst_rate",
    "find_max_multistream_n",
    "find_max_server_qps",
    "measure_offline",
    "measure_single_stream",
    "relative_performance",
    "result_matrix",
    "results_per_processor",
    "results_per_task",
    "all_tenants_valid",
    "generate_report",
    "run_fleet",
    "run_multitenant",
    "run_submission",
    "server_offline_ratios",
]
