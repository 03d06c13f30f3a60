"""Benchmark configuration: tasks, scenarios, and the v0.5 rule constants.

This module encodes the normative tables of the paper:

* Table I   - the five tasks, their reference models and quality targets.
* Table II  - the four scenarios and their metrics.
* Table III - multistream arrival times and server QoS constraints.
* Table V   - minimum query counts and samples per query.

plus the run rules from Section III-D: 60-second minimum duration, five
server runs (score = minimum), tail-latency percentiles (99th for vision,
97th for translation), and the <=1% multistream skip budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..bounds import (AT_LEAST_ONE, NON_NEGATIVE, OPEN_UNIT, POSITIVE,
                      check_range)


class Scenario(enum.Enum):
    """The four MLPerf Inference evaluation scenarios (Table II), plus
    the session extension: multi-turn conversation replay layered on the
    Server arrival process (``repro.sessions``, ``docs/sessions.md``)."""

    SINGLE_STREAM = "single_stream"
    MULTI_STREAM = "multi_stream"
    SERVER = "server"
    OFFLINE = "offline"
    SESSION = "session"

    @property
    def short_name(self) -> str:
        return {
            Scenario.SINGLE_STREAM: "SS",
            Scenario.MULTI_STREAM: "MS",
            Scenario.SERVER: "S",
            Scenario.OFFLINE: "O",
            Scenario.SESSION: "SE",
        }[self]

    @property
    def metric_name(self) -> str:
        return {
            Scenario.SINGLE_STREAM: "90th-percentile latency",
            Scenario.MULTI_STREAM: "number of streams subject to latency bound",
            Scenario.SERVER: "queries per second subject to latency bound",
            Scenario.OFFLINE: "throughput (samples/second)",
            Scenario.SESSION: "completed sessions per second",
        }[self]


#: The four scenarios of the paper's Table II, in enum order - what the
#: paper's tables and figures enumerate (``Scenario`` also carries this
#: repo's session extension, which they do not have).
PAPER_SCENARIOS = (Scenario.SINGLE_STREAM, Scenario.MULTI_STREAM,
                   Scenario.SERVER, Scenario.OFFLINE)


class TestMode(enum.Enum):
    """LoadGen operating modes (Section IV-B)."""

    # Not a pytest class, despite the name pytest would otherwise collect.
    __test__ = False

    PERFORMANCE = "performance"
    ACCURACY = "accuracy"


class Task(enum.Enum):
    """The five v0.5 tasks (Table I)."""

    IMAGE_CLASSIFICATION_HEAVY = "resnet50-v1.5"
    IMAGE_CLASSIFICATION_LIGHT = "mobilenet-v1"
    OBJECT_DETECTION_HEAVY = "ssd-resnet34"
    OBJECT_DETECTION_LIGHT = "ssd-mobilenet-v1"
    MACHINE_TRANSLATION = "gnmt"

    @property
    def area(self) -> str:
        if self is Task.MACHINE_TRANSLATION:
            return "language"
        return "vision"


@dataclass(frozen=True)
class TaskRules:
    """Per-task constants from Tables I, III, and V."""

    task: Task
    #: Multistream fixed arrival interval, seconds (Table III).
    multistream_interval: float
    #: Server latency bound, seconds (Table III).
    server_latency_bound: float
    #: Tail-latency percentile enforced in MS/Server (Section III-D).
    tail_latency_percentile: float
    #: Minimum queries for MS and Server (Table V: 270K vision, 90K NMT).
    latency_bounded_query_count: int
    #: Fraction of queries allowed to violate the bound (1 - percentile).
    #: Kept explicit because the paper states it as a rule ("no more than
    #: 1% ... 3% for translation").
    max_violation_fraction: float


# Table III + Table V + Section III-C latency/percentile rules.
_TASK_RULES: Dict[Task, TaskRules] = {
    Task.IMAGE_CLASSIFICATION_HEAVY: TaskRules(
        task=Task.IMAGE_CLASSIFICATION_HEAVY,
        multistream_interval=0.050,
        server_latency_bound=0.015,
        tail_latency_percentile=0.99,
        latency_bounded_query_count=270_336,
        max_violation_fraction=0.01,
    ),
    Task.IMAGE_CLASSIFICATION_LIGHT: TaskRules(
        task=Task.IMAGE_CLASSIFICATION_LIGHT,
        multistream_interval=0.050,
        server_latency_bound=0.010,
        tail_latency_percentile=0.99,
        latency_bounded_query_count=270_336,
        max_violation_fraction=0.01,
    ),
    Task.OBJECT_DETECTION_HEAVY: TaskRules(
        task=Task.OBJECT_DETECTION_HEAVY,
        multistream_interval=0.066,
        server_latency_bound=0.100,
        tail_latency_percentile=0.99,
        latency_bounded_query_count=270_336,
        max_violation_fraction=0.01,
    ),
    Task.OBJECT_DETECTION_LIGHT: TaskRules(
        task=Task.OBJECT_DETECTION_LIGHT,
        multistream_interval=0.050,
        server_latency_bound=0.010,
        tail_latency_percentile=0.99,
        latency_bounded_query_count=270_336,
        max_violation_fraction=0.01,
    ),
    Task.MACHINE_TRANSLATION: TaskRules(
        task=Task.MACHINE_TRANSLATION,
        multistream_interval=0.100,
        server_latency_bound=0.250,
        tail_latency_percentile=0.97,
        latency_bounded_query_count=90_112,
        max_violation_fraction=0.03,
    ),
}


def task_rules(task: Task) -> TaskRules:
    """Return the Table III/V rule constants for ``task``."""
    return _TASK_RULES[task]


#: Minimum number of single-stream queries (Table V).
SINGLE_STREAM_MIN_QUERIES = 1_024

#: Minimum samples in the offline scenario's one query (Table II/V).
OFFLINE_MIN_SAMPLES = 24_576

#: Every benchmark must run for at least this long (Section III-D).
MIN_DURATION_SECONDS = 60.0

#: Server scenario result is the minimum of this many runs (Section III-D).
SERVER_REQUIRED_RUNS = 5

#: Default LoadGen PRNG seed ("the traffic pattern is predetermined by the
#: pseudorandom-number-generator seed", Section IV-A).
DEFAULT_SEED = 0x5EED_2019

#: Default conversations replayed by the session scenario when
#: ``TestSettings.session_count`` is unset (``docs/sessions.md``).
DEFAULT_SESSION_COUNT = 64


def check_rate_bursts(bursts) -> tuple:
    """``bursts`` as a tuple of ``(start, duration, multiplier)``
    tuples, or ``ValueError`` naming the first bad one: every value
    finite (NaN included), the start >= 0, the duration and the
    multiplier positive, the windows sorted and non-overlapping: what
    ``TestSettings.server_rate_bursts`` accepts."""
    windows = tuple(tuple(w) for w in bursts)
    for window in windows:
        if len(window) != 3:
            raise ValueError(
                "each rate burst must be (start, duration, "
                f"multiplier), got {window!r}"
            )
        start, duration, multiplier = window
        check_range("burst start", start, NON_NEGATIVE)
        check_range("burst duration", duration, POSITIVE)
        check_range("burst multiplier", multiplier, POSITIVE)
    for earlier, later in zip(windows, windows[1:]):
        if earlier[0] + earlier[1] > later[0]:
            raise ValueError(
                "rate bursts must be sorted and non-overlapping: "
                f"{earlier!r} overlaps {later!r}"
            )
    return windows


@dataclass
class TestSettings:
    """Everything the LoadGen needs to drive one run.

    (``__test__`` opts out of pytest collection - the MLPerf name is
    kept for fidelity with the real LoadGen API.)

    Mirrors the real LoadGen's ``TestSettings`` struct: scenario, mode,
    scenario-specific knobs, query-count and duration overrides (used by
    unit tests and the audit tools), and the RNG seed.
    """

    __test__ = False

    scenario: Scenario
    mode: TestMode = TestMode.PERFORMANCE
    task: Optional[Task] = None

    #: Server scenario: the Poisson arrival rate under test (QPS).
    server_target_qps: float = 1.0
    #: Server scenario: queries issued together at each Poisson arrival;
    #: arrivals then come at ``server_target_qps / server_burst_size``
    #: per second.  Above 1 this is the paper's burst mode (Sections I,
    #: IV-B); 1 is the classic Server scenario.
    server_burst_size: int = 1
    #: Multistream scenario: samples per query (the N being validated).
    multistream_samples_per_query: int = 1
    #: Multistream arrival interval override; default comes from Table III.
    multistream_interval: Optional[float] = None
    #: Server latency bound override; default comes from Table III.
    server_latency_bound: Optional[float] = None
    #: Tail-latency percentile override.
    tail_latency_percentile: Optional[float] = None

    #: Overrides for query counts / durations (None -> rule defaults).
    min_query_count: Optional[int] = None
    min_duration: Optional[float] = None
    #: Offline sample count override.
    offline_sample_count: Optional[int] = None

    #: Cap on the number of distinct library samples held in memory; the
    #: performance run draws from this loaded set with replacement.
    performance_sample_count: Optional[int] = None

    #: Overall-run watchdog, in virtual seconds from the start of the
    #: run.  When set, a run that is still incomplete at this time is
    #: terminated and judged INVALID ("watchdog fired"), naming the
    #: stuck queries - instead of deadlocking on a SUT that dropped a
    #: response.  ``None`` disables the watchdog (trusted SUTs only).
    watchdog_timeout: Optional[float] = None

    #: Server scenario: scheduled arrival-rate bursts, as a tuple of
    #: ``(start, duration, multiplier)`` windows on the run clock.
    #: While a window is active, the Poisson arrival rate becomes
    #: ``server_target_qps * multiplier`` - the flash-crowd / lull
    #: traffic the replicated serving tier (``repro.fleet``) is
    #: exercised under.  A flash crowd is one window, e.g.
    #: ``((0.8, 0.6, 3.0),)``.  Plain data (not callables), so journaled
    #: runs replay their bursts.  ``None`` keeps the constant rate.
    server_rate_bursts: Optional[tuple] = None

    #: Token-level serving SLOs for streamed responses, in nanoseconds
    #: (the real LoadGen expresses its targets in ns; the resolved_*
    #: properties convert to seconds).  ``ttft_target_ns`` bounds
    #: time-to-first-token, ``tpot_target_ns`` bounds the mean
    #: inter-token interval after the first.  Violations are budgeted
    #: against the same tail fraction as the classic latency rule, and
    #: *goodput* counts only queries that met every SLO.  ``None``
    #: disables the corresponding check (the classic rules still apply).
    ttft_target_ns: Optional[int] = None
    tpot_target_ns: Optional[int] = None

    #: Session scenario (``repro.sessions``, ``docs/sessions.md``).
    #: ``session_count`` is how many user conversations the run replays;
    #: new sessions arrive via the Server Poisson process at
    #: ``server_target_qps`` *sessions*/s, and within a session turn N+1
    #: issues only after turn N completes plus a drawn think time.  The
    #: remaining knobs parameterize the seeded replay-graph generator
    #: (``repro.sessions.SessionProfile``); per-user draws come from
    #: ``SeedSequence((seed, user_id, 0x5E55))`` so the graph is a pure
    #: function of the run seed.  All plain data, so journaled session
    #: runs replay identically.
    session_count: Optional[int] = None
    session_turns_min: int = 2
    session_turns_max: int = 8
    session_think_time_mean: float = 2.0
    session_new_tokens_min: int = 16
    session_new_tokens_max: int = 128

    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        check_range("server_target_qps", self.server_target_qps, POSITIVE)
        check_range("server_burst_size", self.server_burst_size, AT_LEAST_ONE)
        if self.server_burst_size > 1 and self.scenario is not Scenario.SERVER:
            raise ValueError(
                "server_burst_size applies to the server scenario only, got "
                f"{self.server_burst_size} for {self.scenario.value}"
            )
        check_range("multistream_samples_per_query",
                    self.multistream_samples_per_query, AT_LEAST_ONE)
        if self.multistream_interval is not None:
            check_range("multistream_interval",
                        self.multistream_interval, POSITIVE)
        if self.server_latency_bound is not None:
            check_range("server_latency_bound",
                        self.server_latency_bound, POSITIVE)
        if self.tail_latency_percentile is not None:
            check_range("tail_latency_percentile",
                        self.tail_latency_percentile, OPEN_UNIT)
        if self.min_query_count is not None:
            check_range("min_query_count", self.min_query_count, AT_LEAST_ONE)
        if self.min_duration is not None:
            check_range("min_duration", self.min_duration, NON_NEGATIVE)
        if self.offline_sample_count is not None:
            check_range("offline_sample_count",
                        self.offline_sample_count, AT_LEAST_ONE)
        if self.performance_sample_count is not None:
            check_range("performance_sample_count",
                        self.performance_sample_count, AT_LEAST_ONE)
        if self.watchdog_timeout is not None:
            check_range("watchdog_timeout", self.watchdog_timeout, POSITIVE)
        if self.ttft_target_ns is not None:
            check_range("ttft_target_ns", self.ttft_target_ns, POSITIVE)
        if self.tpot_target_ns is not None:
            check_range("tpot_target_ns", self.tpot_target_ns, POSITIVE)
        if self.session_count is not None:
            check_range("session_count", self.session_count, AT_LEAST_ONE)
        check_range("session_turns_min", self.session_turns_min, AT_LEAST_ONE)
        if self.session_turns_max < self.session_turns_min:
            raise ValueError(
                "session_turns_max must be >= session_turns_min, got "
                f"{self.session_turns_max} < {self.session_turns_min}"
            )
        check_range("session_think_time_mean",
                    self.session_think_time_mean, NON_NEGATIVE)
        check_range("session_new_tokens_min",
                    self.session_new_tokens_min, AT_LEAST_ONE)
        if self.session_new_tokens_max < self.session_new_tokens_min:
            raise ValueError(
                "session_new_tokens_max must be >= session_new_tokens_min, "
                f"got {self.session_new_tokens_max} < "
                f"{self.session_new_tokens_min}"
            )
        if self.server_rate_bursts is not None:
            self.server_rate_bursts = check_rate_bursts(
                self.server_rate_bursts)

    # -- resolved rule values -------------------------------------------------

    def _rules(self) -> Optional[TaskRules]:
        return _TASK_RULES.get(self.task) if self.task is not None else None

    @property
    def resolved_multistream_interval(self) -> float:
        if self.multistream_interval is not None:
            return self.multistream_interval
        rules = self._rules()
        if rules is None:
            raise ValueError("multistream_interval unset and no task given")
        return rules.multistream_interval

    @property
    def resolved_server_latency_bound(self) -> float:
        if self.server_latency_bound is not None:
            return self.server_latency_bound
        rules = self._rules()
        if rules is None:
            raise ValueError("server_latency_bound unset and no task given")
        return rules.server_latency_bound

    @property
    def resolved_tail_percentile(self) -> float:
        if self.tail_latency_percentile is not None:
            return self.tail_latency_percentile
        rules = self._rules()
        if rules is None:
            # Vision default.
            return 0.99
        return rules.tail_latency_percentile

    @property
    def resolved_min_query_count(self) -> int:
        if self.min_query_count is not None:
            return self.min_query_count
        if self.scenario is Scenario.SINGLE_STREAM:
            return SINGLE_STREAM_MIN_QUERIES
        if self.scenario is Scenario.OFFLINE:
            return 1
        if self.scenario is Scenario.SESSION:
            # The session rule gates on completed *sessions* (see
            # validate_run), not a turn count; an explicit override
            # above still applies.
            return 1
        rules = self._rules()
        if rules is not None:
            return rules.latency_bounded_query_count
        return 270_336

    @property
    def resolved_min_duration(self) -> float:
        if self.min_duration is not None:
            return self.min_duration
        return MIN_DURATION_SECONDS

    @property
    def resolved_offline_samples(self) -> int:
        if self.offline_sample_count is not None:
            return self.offline_sample_count
        return OFFLINE_MIN_SAMPLES

    @property
    def resolved_max_violation_fraction(self) -> float:
        rules = self._rules()
        if rules is not None:
            return rules.max_violation_fraction
        return 1.0 - self.resolved_tail_percentile

    @property
    def resolved_session_count(self) -> int:
        """Sessions the session scenario replays (default 64)."""
        if self.session_count is not None:
            return self.session_count
        return DEFAULT_SESSION_COUNT

    @property
    def resolved_ttft_target(self) -> Optional[float]:
        """TTFT SLO in seconds, or None when unset."""
        if self.ttft_target_ns is None:
            return None
        return self.ttft_target_ns / 1e9

    @property
    def resolved_tpot_target(self) -> Optional[float]:
        """TPOT SLO in seconds, or None when unset."""
        if self.tpot_target_ns is None:
            return None
        return self.tpot_target_ns / 1e9

    def with_overrides(self, **kwargs) -> "TestSettings":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
