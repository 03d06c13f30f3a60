"""``repro.bounds``: one range check, and no setting lets NaN through.

Every numeric setting ``tests/core/test_bounds_contract.py`` pins is
built here with NaN, +inf and -inf: each is refused at construction by
a ``ValueError`` that names the setting, except where infinity has a
meaning: a permanent outage, or a total retry budget that never runs
out.
"""

import math

import pytest

from repro.bounds import (DURATION_OR_FOREVER, FINITE, FRACTION, NON_NEGATIVE,
                          POSITIVE, UNIT, Interval, check_range)
from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.metrics import Histogram
from repro.sut.echo import EchoSUT
from tests.conftest import EchoQSL
from tests.core.test_bounds_contract import BUILD

NAN, INF = math.nan, math.inf

#: ``(setting, value)`` pairs a constructor accepts although non-finite.
ACCEPTED = {
    ("OutageSUT.outage_duration", INF),  # a permanent outage
    ("RetryPolicy.total_timeout", INF),  # a budget that never runs out
    ("SelfHealingSUT.total_timeout", INF),
}

CASES = [(key, value) for key in BUILD for value in (NAN, INF, -INF)
         if (key, value) not in ACCEPTED]


@pytest.mark.parametrize("key,value", CASES,
                         ids=[f"{k}={v}" for k, v in CASES])
def test_a_non_finite_setting_stops_at_the_constructor(key, value, tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as refused:
        BUILD[key](value)
    assert key.rsplit(".", 1)[1] in str(refused.value)


@pytest.mark.parametrize("key,value", sorted(ACCEPTED))
def test_infinity_is_accepted_where_it_means_forever(key, value):
    BUILD[key](value)


def test_a_nan_latency_is_refused_before_the_run_starts():
    settings = TestSettings(scenario=Scenario.SERVER, server_target_qps=10.0,
                            min_query_count=8, min_duration=0.0)
    with pytest.raises(ValueError, match="latency must be >= 0, got nan"):
        run_benchmark(EchoSUT(latency=NAN), EchoQSL(), settings)


def test_a_nan_histogram_base_is_refused():
    with pytest.raises(ValueError, match="base must be positive, got nan"):
        Histogram(base=NAN)


class TestCheckRange:
    def test_returns_the_value_it_accepts(self):
        assert check_range("x", 0.25, UNIT) == 0.25

    @pytest.mark.parametrize("interval,inside,outside", [
        (POSITIVE, [5e-324, 1e308], [0.0, -1.0, INF, NAN]),
        (NON_NEGATIVE, [0.0, 1e308], [-5e-324, INF, NAN]),
        (UNIT, [0.0, 1.0], [-5e-324, 1.0000000000000002, NAN]),
        (FRACTION, [5e-324, 1.0], [0.0, 1.0000000000000002, NAN]),
        (FINITE, [-1e308, 1e308], [-INF, INF, NAN]),
        (DURATION_OR_FOREVER, [0.0, INF], [-5e-324, -INF, NAN]),
    ])
    def test_each_end_is_open_or_closed_as_written(self, interval, inside,
                                                    outside):
        for value in inside:
            check_range("x", value, interval)
        for value in outside:
            with pytest.raises(ValueError):
                check_range("x", value, interval)

    def test_the_message_names_the_setting_the_bound_and_the_value(self):
        with pytest.raises(ValueError) as refused:
            check_range("period", -1.0, POSITIVE)
        assert str(refused.value) == "period must be positive, got -1.0"

    def test_a_custom_interval_words_its_own_bound(self):
        percent = Interval(50.0, 100.0, False, True, "in (50, 100]")
        check_range("clip", 100.0, percent)
        with pytest.raises(ValueError, match=r"^clip must be in \(50, 100\]"):
            check_range("clip", 50.0, percent)
