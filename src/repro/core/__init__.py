"""Core benchmark machinery: the LoadGen, scenarios, and run rules."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": (
        "DEFAULT_SEED", "DEFAULT_SESSION_COUNT", "MIN_DURATION_SECONDS",
        "OFFLINE_MIN_SAMPLES", "PAPER_SCENARIOS", "SERVER_REQUIRED_RUNS",
        "SINGLE_STREAM_MIN_QUERIES", "Scenario", "Task", "TaskRules",
        "TestMode", "TestSettings", "task_rules",
    ),
    "events": (
        "Clock", "EventLoop", "RunAbortedError", "VirtualClock", "WallClock",
    ),
    "loadgen": ("LoadGenResult", "run_benchmark", "run_tenants"),
    "logging": ("QueryLog",),
    "metrics": (
        "ScenarioMetrics", "SessionMetrics", "StreamMetrics",
        "compute_metrics", "empty_metrics",
    ),
    "query": (
        "Query", "QueryFailure", "QueryRecord", "QuerySample",
        "QuerySampleResponse", "SessionTurn", "StreamChunk",
    ),
    "stats": (
        "QueryRequirement", "inverse_normal_cdf", "margin_for_tail_latency",
        "percentile", "queries_for_confidence", "required_queries",
        "round_up_to_unit", "table_iv",
    ),
    "sut": ("QuerySampleLibrary", "SutBase", "SystemUnderTest"),
    "trace": ("to_chrome_trace", "write_chrome_trace"),
    "validation": ("ValidityReport", "validate_run"),
})
