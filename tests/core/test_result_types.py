"""Everything a run reports is a plain builtin value.

Same-seed digests hash ``repr``s, and numpy 2 prints its scalars as
``np.float64(...)``: one numpy value leaking into the metrics, the
validity details, the fingerprint or the jsonl trace changes every
digest built on them without changing a single number.  So the exact
type of every reported value is part of the contract.
"""

import dataclasses
import enum
import json

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.durability import run_fingerprint
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL

PLAIN = (int, float, bool, str, type(None))

RUNS = {
    "server": dict(scenario=Scenario.SERVER, server_target_qps=500.0,
                   server_latency_bound=1.0, min_query_count=64),
    "offline": dict(scenario=Scenario.OFFLINE, offline_sample_count=96),
    "single-stream": dict(scenario=Scenario.SINGLE_STREAM,
                          min_query_count=32),
    "multi-stream": dict(scenario=Scenario.MULTI_STREAM,
                         multistream_samples_per_query=4,
                         multistream_interval=0.05, min_query_count=16),
    "session": dict(scenario=Scenario.SESSION, server_target_qps=100.0,
                    server_latency_bound=1.0, session_count=8,
                    session_think_time_mean=0.05),
}


def not_plain(value, path="result"):
    """Paths of the leaves under ``value`` whose exact type is not a
    builtin scalar (or an Enum member)."""
    if type(value) in PLAIN or isinstance(value, enum.Enum):
        return []
    if dataclasses.is_dataclass(value):
        items = [(f".{f.name}", getattr(value, f.name))
                 for f in dataclasses.fields(value)]
    elif type(value) is dict:
        items = [(f"[{key!r}]", item) for key, item in value.items()]
        items += [(f" key {key!r}", key) for key in value]
    elif type(value) in (list, tuple):
        items = [(f"[{i}]", item) for i, item in enumerate(value)]
    else:
        return [f"{path}: {type(value).__module__}.{type(value).__name__}"]
    return [bad for suffix, item in items
            for bad in not_plain(item, path + suffix)]


@pytest.mark.parametrize("streamed", [False, True],
                         ids=["plain", "streamed"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_reported_value_is_a_builtin(name, streamed):
    sut = EchoSUT(latency=0.002)
    overrides = dict(RUNS[name])
    if streamed:
        sut = StreamingSUT(sut, StreamModel(seed=5))
        overrides.update(ttft_target_ns=50_000_000, tpot_target_ns=5_000_000)
    settings = TestSettings(min_duration=0.0, watchdog_timeout=600.0,
                            seed=5, **overrides)
    result = run_benchmark(sut, EchoQSL(), settings)
    assert result.valid, result.validity.reasons
    assert (result.metrics.stream is not None) == streamed
    assert (result.metrics.session is not None) == (name == "session")

    bad = not_plain(result.metrics, "metrics")
    bad += not_plain(result.validity.details, "validity.details")
    bad += not_plain(run_fingerprint(result), "run_fingerprint")
    for number, line in enumerate(result.log.to_jsonl().splitlines()):
        bad += not_plain(json.loads(line), f"to_jsonl line {number}")
    assert not bad, bad[:10]
