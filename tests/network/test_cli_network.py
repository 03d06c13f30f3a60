"""``repro run --sut network`` end to end, pinned.

An in-process ``InferenceServer`` on a loopback port, then the CLI's
own ``main``: the run must come out VALID, print the client's and the
server's side of the wire, and write a trace whose queries carry a
``network`` process.  The settings the LoadGen runs with are pinned as
the literal ``TestSettings`` the network path has always built:
``--stream`` only sets the token-level targets there, it adds no
client-side stream layer.
"""

import json

import pytest

from repro import cli
from repro.core import loadgen
from repro.core.config import Scenario, TestSettings
from repro.network.server import InferenceServer, ServerConfig
from repro.sut.echo import EchoSUT

pytestmark = pytest.mark.socket


@pytest.fixture
def server():
    server = InferenceServer(lambda: EchoSUT(latency=0.001),
                             ServerConfig(port=0))
    host, port = server.start()
    try:
        yield f"{host}:{port}"
    finally:
        server.stop()


@pytest.fixture
def driven(monkeypatch):
    """The settings of every scenario driver the run builds."""
    seen = []
    make_driver = loadgen.make_driver

    def recorded(loop, settings, *args, **kwargs):
        seen.append(settings)
        return make_driver(loop, settings, *args, **kwargs)

    monkeypatch.setattr(loadgen, "make_driver", recorded)
    return seen


def test_single_stream_run_reports_both_sides_and_traces_the_wire(
        server, driven, tmp_path, capsys):
    trace = tmp_path / "run.json"
    code = cli.main(["run", "--sut", "network", "--addr", server,
                     "--scenario", "single-stream", "--queries", "50",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "Result is         : VALID" in out
    assert "Queries issued    : 50" in out
    lines = out.splitlines()
    for prefix in ("client: ", "server: ", "mean round trip : ",
                   "mean wire share : ", "trace written to "):
        assert any(line.startswith(prefix) for line in lines), prefix
    events = json.loads(trace.read_text())
    events = events["traceEvents"] if isinstance(events, dict) else events
    processes = {e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
    assert "network" in processes
    assert driven == [TestSettings(
        scenario=Scenario.SINGLE_STREAM, task=None,
        server_target_qps=100.0, server_latency_bound=0.1,
        min_query_count=50, min_duration=0.0, watchdog_timeout=60.0,
        seed=0)]


def test_stream_flag_sets_only_the_token_targets(server, driven, capsys):
    code = cli.main(["run", "--sut", "network", "--addr", server,
                     "--scenario", "server", "--target-qps", "400",
                     "--queries", "40", "--seed", "3", "--stream",
                     "--ttft-ms", "50", "--tpot-ms", "5"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "Result is         : VALID" in out
    assert "Streamed queries" not in out
    assert driven == [TestSettings(
        scenario=Scenario.SERVER, task=None,
        server_target_qps=400.0, server_latency_bound=0.1,
        min_query_count=40, min_duration=0.0, watchdog_timeout=60.0,
        seed=3, ttft_target_ns=50_000_000, tpot_target_ns=5_000_000)]
