"""Core benchmark machinery: the LoadGen, scenarios, and run rules."""

from .config import (
    DEFAULT_SEED,
    DEFAULT_SESSION_COUNT,
    MIN_DURATION_SECONDS,
    OFFLINE_MIN_SAMPLES,
    PAPER_SCENARIOS,
    SERVER_REQUIRED_RUNS,
    SINGLE_STREAM_MIN_QUERIES,
    Scenario,
    Task,
    TaskRules,
    TestMode,
    TestSettings,
    task_rules,
)
from .events import Clock, EventLoop, RunAbortedError, VirtualClock, WallClock
from .experimental import (
    BurstSettings,
    find_max_burst_rate,
    run_burst_benchmark,
)
from .loadgen import LoadGen, LoadGenResult, run_benchmark
from .logging import QueryLog
from .metrics import (
    ScenarioMetrics,
    SessionMetrics,
    StreamMetrics,
    compute_metrics,
    empty_metrics,
)
from .query import (
    Query,
    QueryFailure,
    QueryRecord,
    QuerySample,
    QuerySampleResponse,
    SessionTurn,
    StreamChunk,
)
from .stats import (
    QueryRequirement,
    inverse_normal_cdf,
    margin_for_tail_latency,
    percentile,
    queries_for_confidence,
    required_queries,
    round_up_to_unit,
    table_iv,
)
from .sut import QuerySampleLibrary, SutBase, SystemUnderTest
from .trace import to_chrome_trace, write_chrome_trace
from .validation import ValidityReport, validate_run

__all__ = [
    "BurstSettings",
    "Clock",
    "DEFAULT_SEED",
    "DEFAULT_SESSION_COUNT",
    "EventLoop",
    "LoadGen",
    "LoadGenResult",
    "MIN_DURATION_SECONDS",
    "OFFLINE_MIN_SAMPLES",
    "PAPER_SCENARIOS",
    "Query",
    "QueryFailure",
    "QueryLog",
    "QueryRecord",
    "QueryRequirement",
    "QuerySample",
    "QuerySampleLibrary",
    "QuerySampleResponse",
    "RunAbortedError",
    "SERVER_REQUIRED_RUNS",
    "SINGLE_STREAM_MIN_QUERIES",
    "Scenario",
    "ScenarioMetrics",
    "SessionMetrics",
    "SessionTurn",
    "StreamChunk",
    "StreamMetrics",
    "SutBase",
    "SystemUnderTest",
    "Task",
    "TaskRules",
    "TestMode",
    "TestSettings",
    "ValidityReport",
    "VirtualClock",
    "WallClock",
    "compute_metrics",
    "empty_metrics",
    "find_max_burst_rate",
    "run_burst_benchmark",
    "inverse_normal_cdf",
    "margin_for_tail_latency",
    "percentile",
    "queries_for_confidence",
    "required_queries",
    "round_up_to_unit",
    "run_benchmark",
    "table_iv",
    "to_chrome_trace",
    "write_chrome_trace",
    "task_rules",
    "validate_run",
]
