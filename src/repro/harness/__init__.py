"""Experiment harnesses: capacity tuning, fleet sweeps, table formatters."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "multitenant": ("TenantSpec", "all_tenants_valid", "run_multitenant"),
    "report": ("generate_report",),
    "experiments": (
        "FLEET_SCALE", "SubmissionRecord", "relative_performance",
        "result_matrix", "results_per_processor", "results_per_task",
        "run_fleet", "run_submission", "server_offline_ratios",
    ),
    "tuning": (
        "FULL_SCALE", "QUICK_SCALE", "RunScale", "TunedResult",
        "find_max_burst_rate", "find_max_multistream_n", "find_max_server_qps",
        "measure_offline", "measure_single_stream",
    ),
})
