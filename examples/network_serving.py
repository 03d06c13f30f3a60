"""Network division walkthrough: the LoadGen drives a SUT across a wire.

Three measurements on the same echo backend (fixed 2 ms service time):

1. **In-process baseline** - the ordinary wall-clock run, no network.
2. **Localhost TCP** - the backend hosted by an ``InferenceServer``,
   driven by a ``StackSpec(NetworkBackend(...))`` client over real
   loopback sockets; the difference against (1) is the serving stack's
   per-query overhead.
3. **Simulated channel sweep** - ``StackSpec(EchoBackend(...),
   channel=...)``: the same backend behind a virtual-time channel at
   increasing one-way latencies, showing how the wire eats the server
   scenario's QoS budget until the run goes INVALID -
   deterministically, in milliseconds of wall time.

Run:  python examples/network_serving.py   (~10 seconds)
"""

from repro.core.config import Scenario, TestSettings
from repro.core.events import WallClock
from repro.core.loadgen import run_benchmark
from repro.harness.netbench import (
    SyntheticQSL,
    latency_overhead,
    run_over_localhost,
)
from repro.harness.stack import EchoBackend, StackSpec, build
from repro.network import ChannelModel
from repro.sut.echo import EchoSUT

SETTINGS = TestSettings(
    scenario=Scenario.SERVER,
    server_target_qps=150.0,
    server_latency_bound=0.015,       # the paper's ResNet-50 bound
    min_query_count=120,
    min_duration=0.0,
    watchdog_timeout=30.0,
)
BACKEND_LATENCY = 0.002
QSL = SyntheticQSL()


def main() -> None:
    # 1. In-process wall-clock baseline.
    baseline = run_benchmark(
        EchoSUT(latency=BACKEND_LATENCY), QSL, SETTINGS, clock=WallClock()
    )
    print("in-process baseline:")
    print(baseline.summary())

    # 2. The same backend behind a real TCP hop on loopback.
    net = run_over_localhost(
        lambda: EchoSUT(latency=BACKEND_LATENCY), QSL, SETTINGS
    )
    print("\nlocalhost TCP serving:")
    print(net.result.summary())
    overhead = latency_overhead(net, baseline)
    print(f"per-query serving overhead: "
          f"{overhead['mean_overhead_s'] * 1e3:.3f} ms mean "
          f"(wire share {overhead['wire_share_s'] * 1e3:.3f} ms)")

    # 3. Deterministic QoS-degradation sweep on the simulated channel.
    print("\nsimulated channel sweep (virtual time, seed-stable):")
    print(f"{'one-way latency':>16} {'P99 (ms)':>10} {'verdict':>8}")
    for one_way_ms in (0.5, 2.0, 5.0, 8.0, 20.0):
        model = ChannelModel(latency=one_way_ms * 1e-3, jitter=0.0005)
        stack = build(StackSpec(EchoBackend(BACKEND_LATENCY), channel=model),
                      seed=42)
        sim = stack.run(QSL, SETTINGS)
        verdict = "VALID" if sim.valid else "INVALID"
        print(f"{one_way_ms:>13.1f} ms "
              f"{sim.metrics.latency_p99 * 1e3:>10.3f} {verdict:>8}")


if __name__ == "__main__":
    main()
