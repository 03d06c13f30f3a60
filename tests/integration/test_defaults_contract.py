"""What the default settings of the channel, the fleet's control loops and
the prefix cache do, pinned from the outside.

Each layer here offers fewer knobs than it once did; the behaviour at
the values every workload runs with is the contract.  The literals were
recorded from the code as it shipped with every knob in place:

* a lossy, jittery ``SimulatedChannelSUT`` (jitter 0.2 ms, drop 5 %,
  and at seed ``s`` reordering ``10 s`` %), plain and streamed, at
  seeds 0-9: ``run_fingerprint``, transport records and ``ChannelStats``;
* an autoscaled 2-zone fleet's ``ScalingDecision`` trail at seeds 0-4,
  and the order fleets of 4 to 8 replicas over 1 to 4 zones drain and
  revive replicas in;
* the ``OutlierDetector`` trail under ``OutlierPolicy()``, through a
  brownout and a partition, at seeds 1-6;
* the prefix cache's prefill delays, alone and per replica, at four
  seeds.

Two rules the trails must also keep are checked directly: every scaling
action moves one replica, and ``scale_down`` drains the highest-indexed
replica still up until one is left.
"""

import dataclasses
import hashlib

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.core.sut import SutBase
from repro.durability import run_fingerprint
from repro.faults import DegradedSUT, ResilientSUT, RetryPolicy
from repro.fleet import (
    Autoscaler,
    OutlierDetector,
    OutlierPolicy,
    ReplicaSet,
)
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.sessions import PrefixCacheSUT, per_replica_cache_factory
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL, FixedLatencySUT


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def server_settings(queries, qps, bound=0.5, seed=0, **extra):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=bound, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=60.0, seed=seed, **extra)


# -- the simulated channel ----------------------------------------------------

#: (streamed, seed) -> (run_fingerprint, transport records) digests and
#: the ChannelStats fields.
CHANNEL = {
    (False, 0): (
        "59e5ee608e5e7d49b547dc9cde76e40d22631d053588bb225db652dd263670f7",
        "b9f57f4d14ce85b8e2a5f2144a8f73d6a87b46c88308cf8986bf118c595eee2b",
        dict(queries_forwarded=159, queries_dropped=16,
             completions_forwarded=150, completions_dropped=9,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=0, bytes_forward=13125, bytes_reverse=20193)),
    (False, 1): (
        "2bd0a4bc59acc0c9fa54eca0e72c241ebe2292f0d4e46f3e45dd2ac7131a3863",
        "42e6ab2d86ed20c05d07af85dbc33ec01817b85b74404e5cb4078d5fceb99bbc",
        dict(queries_forwarded=156, queries_dropped=6,
             completions_forwarded=150, completions_dropped=6,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=24, bytes_forward=12150, bytes_reverse=19812)),
    (False, 2): (
        "a33c0aeb2040be2b6d1b18bb2360c593440aa462af3c31515206e4eb204b2564",
        "11f7f8126a260cdf62934dd304034321690fce5551d00c470e28d22244eec696",
        dict(queries_forwarded=160, queries_dropped=10,
             completions_forwarded=150, completions_dropped=10,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=64, bytes_forward=12750, bytes_reverse=20320)),
    (False, 3): (
        "c3f9102865cc04007c7c6c15c1df6eda6a4bdb65f34725a020df505d7ab9de70",
        "8d60fa6944b6388f03ad5f8daab50f7b188006b62a42b5e7481d3e64311cc83c",
        dict(queries_forwarded=158, queries_dropped=6,
             completions_forwarded=150, completions_dropped=8,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=83, bytes_forward=12300, bytes_reverse=20066)),
    (False, 4): (
        "42a717907da92cf1c00631e12cce3b33ae8df797993451d83bdb61eb01b17e88",
        "8bc1498d15279f16d218883eb32849da595495035ee1c692f0031b905188b4f5",
        dict(queries_forwarded=159, queries_dropped=12,
             completions_forwarded=150, completions_dropped=9,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=142, bytes_forward=12825, bytes_reverse=20193)),
    (False, 5): (
        "9378a531deab6351f51c764108a4b23680e1084e27f9145bce392ea1819a0f11",
        "11c1c75d8c139bce3ef4cf81ee8bee816c77bf9dae935e948198c0989922a611",
        dict(queries_forwarded=155, queries_dropped=4,
             completions_forwarded=150, completions_dropped=5,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=145, bytes_forward=11925, bytes_reverse=19685)),
    (False, 6): (
        "93a28731b513e6da883309007fbf9c42de0087178c5b71b38469def76377ea5e",
        "c07438520297d2a3adbb39c2c26c53d22b23ff10f4776791b87d9e94e31ceacf",
        dict(queries_forwarded=155, queries_dropped=7,
             completions_forwarded=150, completions_dropped=5,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=181, bytes_forward=12150, bytes_reverse=19685)),
    (False, 7): (
        "9fa758c6ef5da0bf87b28e039e9df3129441c0a99015459239099b2987467ba4",
        "c9c799a092451ea2bb3c95e8aabff042051a524138617835fd1ee2bcc6c0ff9c",
        dict(queries_forwarded=165, queries_dropped=9,
             completions_forwarded=150, completions_dropped=15,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=230, bytes_forward=13050, bytes_reverse=20955)),
    (False, 8): (
        "e1169e3083b8c76ff1995edc9246c95c856a2941b528d62abe034283561ae104",
        "87db4a7bfd1305ba0eb58db3772fabdf378d297e4eb667725fbe08d3dddf73c3",
        dict(queries_forwarded=159, queries_dropped=8,
             completions_forwarded=150, completions_dropped=9,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=242, bytes_forward=12525, bytes_reverse=20193)),
    (False, 9): (
        "bc770c647614dd31d366eb4f9c68e66e80685c4c03753578583b9a36b5e33067",
        "e7fd1d571e568d6730bd900e00beeb9486e34881a012d7bc2f4642e869017efc",
        dict(queries_forwarded=164, queries_dropped=10,
             completions_forwarded=150, completions_dropped=14,
             chunks_forwarded=0, chunks_dropped=0, chunks_stranded=0,
             reordered_frames=287, bytes_forward=13050, bytes_reverse=20828)),
    (True, 0): (
        "aef98369256d455c03a36be18e509b3354fb082f2b46d5755d0b7e1d44a1ec7b",
        "84f91e7d27a73cc5b646f92bfeaf2f33ddba10b2017e3eb80c48fae81fd6f2d0",
        dict(queries_forwarded=158, queries_dropped=12,
             completions_forwarded=150, completions_dropped=8,
             chunks_forwarded=820, chunks_dropped=47, chunks_stranded=108,
             reordered_frames=0, bytes_forward=12750, bytes_reverse=99830)),
    (True, 1): (
        "1757ed2fa9845ef6a290ca1ba7f6c66e7409773878fa0b1f3bd07ef87415ff4f",
        "afd98bed6b75e3712999c6f1553398cb16b0cf8a70325d4ea189bb7b8ec08a01",
        dict(queries_forwarded=164, queries_dropped=3,
             completions_forwarded=150, completions_dropped=14,
             chunks_forwarded=864, chunks_dropped=39, chunks_stranded=131,
             reordered_frames=106, bytes_forward=12525, bytes_reverse=103904)),
    (True, 2): (
        "104b5df275400220fc041082ddbedd777b6290826250c05379d4ca8633fa5166",
        "807d8974acb14aa89aa19985780c5c97a563786cc5251446c6fc696308e5a4db",
        dict(queries_forwarded=156, queries_dropped=14,
             completions_forwarded=150, completions_dropped=6,
             chunks_forwarded=817, chunks_dropped=34, chunks_stranded=80,
             reordered_frames=239, bytes_forward=12750, bytes_reverse=98104)),
    (True, 3): (
        "3662480ae24104cc4192e8c70748125fe7fdbc16cbc8066994eccf35d385239b",
        "56d2d427a3add5c9598f29cec0c24b3b32bc4abae421c3ee44305c20efbf162f",
        dict(queries_forwarded=160, queries_dropped=8,
             completions_forwarded=150, completions_dropped=10,
             chunks_forwarded=846, chunks_dropped=39, chunks_stranded=91,
             reordered_frames=361, bytes_forward=12600, bytes_reverse=101740)),
    (True, 4): (
        "46e5cf8009d10d2914ae941f1d964cb03091a64a6fc371b6a9f1acb145bf5aa2",
        "8308d9e09bb93d9b136c980cdc15f33d3b04f44472a297fe22be7bdf49fb4ff6",
        dict(queries_forwarded=166, queries_dropped=7,
             completions_forwarded=150, completions_dropped=16,
             chunks_forwarded=870, chunks_dropped=51, chunks_stranded=105,
             reordered_frames=463, bytes_forward=12975, bytes_reverse=105814)),
    (True, 5): (
        "399fca51d169c8ebfd8f5c033c8e9604bc1ef2ba4582ce094ca78a1a4a2ffee2",
        "e6b03d0fb00817e66e2f508852d893b7adcc5a479143ebf86e52f2ad21f5032a",
        dict(queries_forwarded=157, queries_dropped=10,
             completions_forwarded=150, completions_dropped=7,
             chunks_forwarded=822, chunks_dropped=38, chunks_stranded=95,
             reordered_frames=542, bytes_forward=12525, bytes_reverse=99059)),
    (True, 6): (
        "678e4794704c50b360fb1178e75a7e4a8c6413b08b5f172d30700c7fd862b968",
        "8f88157ee320561fa4e61d5e665008af881a6e66024f5704ec402f2ca0eb3cd2",
        dict(queries_forwarded=159, queries_dropped=8,
             completions_forwarded=150, completions_dropped=9,
             chunks_forwarded=827, chunks_dropped=47, chunks_stranded=101,
             reordered_frames=702, bytes_forward=12525, bytes_reverse=100601)),
    (True, 7): (
        "40d0f88581adcdcc80ed97c6ae87ef0dfb0ab1cfedbe824d190d23f10e79c282",
        "11989c8627edd479e5feeca955e27a5ee3296d01c15aac4493b3b6fd02461546",
        dict(queries_forwarded=158, queries_dropped=6,
             completions_forwarded=150, completions_dropped=8,
             chunks_forwarded=823, chunks_dropped=48, chunks_stranded=97,
             reordered_frames=814, bytes_forward=12300, bytes_reverse=100198)),
    (True, 8): (
        "55a45109d4509c854205aa24ac8040d4976fa0e08e794bdb224df47e877015ea",
        "09108ae1e0d05bbd9821197eac026b39d518f882bf8a8673b0bf11085244553d",
        dict(queries_forwarded=158, queries_dropped=4,
             completions_forwarded=150, completions_dropped=8,
             chunks_forwarded=816, chunks_dropped=46, chunks_stranded=97,
             reordered_frames=893, bytes_forward=12150, bytes_reverse=99370)),
    (True, 9): (
        "3162bd8949acb6b0324b85f01fb42a5fccdf9c064f7687346d91ab07a5d62fd9",
        "e746f7050e7dc0b98765ce60cbce62e258956b4deb445383d9767229585bba9f",
        dict(queries_forwarded=158, queries_dropped=8,
             completions_forwarded=150, completions_dropped=8,
             chunks_forwarded=817, chunks_dropped=52, chunks_stranded=112,
             reordered_frames=999, bytes_forward=12450, bytes_reverse=100014)),
}


def channel_run(streamed, seed):
    backend = EchoSUT(latency=0.0005)
    if streamed:
        backend = StreamingSUT(backend, model=StreamModel(
            first_token_delay=0.001, inter_token_delay=0.0002,
            min_tokens=3, max_tokens=8, seed=5))
    channel = SimulatedChannelSUT(backend, ChannelModel(
        latency=0.0005, jitter=0.0002, drop_rate=0.05,
        reorder_rate=0.1 * seed, seed=2000 + seed))
    sut = ResilientSUT(channel, RetryPolicy(
        max_attempts=4, attempt_timeout=0.010, backoff_base=0.001),
        seed=seed)
    result = run_benchmark(sut, EchoQSL(),
                           server_settings(150, 400.0, seed=seed))
    records = sorted(channel.transport_records.items())
    return (digest(run_fingerprint(result)), digest(records),
            dataclasses.asdict(channel.stats))


@pytest.mark.parametrize("streamed,seed", sorted(CHANNEL), ids=[
    f"{'streamed' if streamed else 'plain'}-{seed}"
    for streamed, seed in sorted(CHANNEL)])
def test_lossy_jittery_channel_is_pinned(streamed, seed):
    assert channel_run(streamed, seed) == CHANNEL[streamed, seed]


# -- the autoscaler and the drain order ---------------------------------------

#: seed -> decisions, actions taken, and the trail's digest.
SCALING = {
    0: (67, {"hold": 61, "up": 3, "down": 3},
        "e369114ba135b256d4079a34bb34d5b19c366be5794dcf3b67e2c047f6ada0ec"),
    1: (68, {"hold": 59, "up": 4, "down": 5},
        "575bc20409d15629d2b26de00a9b8b4713b70ed1f7db5409cd5c39b2b0452896"),
    2: (68, {"hold": 61, "up": 4, "down": 3},
        "9107df5270383ad483abf56b6c83e1021d610e313556981aa2f7a140b96d192c"),
    3: (67, {"hold": 60, "up": 3, "down": 4},
        "d0a8e806d7eadfe945cccd486f0e877a4dbe45cdd08c59d7bd48e20dfc9e48a1"),
    4: (68, {"hold": 63, "up": 2, "down": 3},
        "a146959d15ef7dfbb3ad734a658a1464bc125dba64372ab2a44a4ebae84ccd79"),
}


def scaling_decisions(seed):
    fleet = ReplicaSet(lambda i: FixedLatencySUT(latency=0.020),
                       initial_replicas=3, max_replicas=8, zones=2,
                       attempt_timeout=2.0, seed=seed)
    scaler = Autoscaler(fleet)
    result = run_benchmark(
        fleet, EchoQSL(),
        server_settings(600, 60.0, bound=1.0, seed=seed,
                        server_rate_bursts=((2.0, 1.5, 6.0),)),
        services=[scaler])
    assert result.valid
    return scaler.trace


@pytest.mark.parametrize("seed", sorted(SCALING))
def test_autoscaled_trail_is_pinned(seed):
    trace = scaling_decisions(seed)
    actions = {}
    for decision in trace:
        actions[decision.action] = actions.get(decision.action, 0) + 1
    assert (len(trace), actions, digest(trace)) == SCALING[seed]


@pytest.mark.parametrize("seed", sorted(SCALING))
def test_each_scaling_action_moves_one_replica(seed):
    moves = {"up": 1, "down": -1, "hold": 0}
    for decision in scaling_decisions(seed):
        assert (decision.replicas_after - decision.replicas_before
                == moves[decision.action]), decision


#: (replicas, zones) -> (index, zone) of each replica drained, then of
#: each one revived.
DRAIN_ORDER = {
    (4, 1): (
        [(3, "z0"), (2, "z0"), (1, "z0")],
        [(1, "z0"), (2, "z0"), (3, "z0")]),
    (5, 2): (
        [(4, "z0"), (3, "z1"), (2, "z0"), (1, "z1")],
        [(1, "z1"), (2, "z0"), (3, "z1"), (4, "z0")]),
    (6, 2): (
        [(5, "z1"), (4, "z0"), (3, "z1"), (2, "z0"), (1, "z1")],
        [(1, "z1"), (2, "z0"), (3, "z1"), (4, "z0"), (5, "z1")]),
    (6, 3): (
        [(5, "z2"), (4, "z1"), (3, "z0"), (2, "z2"), (1, "z1")],
        [(1, "z1"), (2, "z2"), (3, "z0"), (4, "z1"), (5, "z2")]),
    (7, 3): (
        [(6, "z0"), (5, "z2"), (4, "z1"), (3, "z0"), (2, "z2"), (1, "z1")],
        [(1, "z1"), (2, "z2"), (3, "z0"), (4, "z1"), (5, "z2"), (6, "z0")]),
    (8, 4): (
        [(7, "z3"), (6, "z2"), (5, "z1"), (4, "z0"), (3, "z3"), (2, "z2"), (1,
         "z1")],
        [(1, "z1"), (2, "z2"), (3, "z3"), (4, "z0"), (5, "z1"), (6, "z2"), (7,
         "z3")]),
}


@pytest.mark.parametrize("replicas,zones", sorted(DRAIN_ORDER),
                         ids=[f"{r}-over-{z}" for r, z in sorted(DRAIN_ORDER)])
def test_two_zone_fleet_drains_and_revives_in_pinned_order(replicas, zones):
    assert drain_and_revive(replicas, zones) == DRAIN_ORDER[replicas, zones]


@pytest.mark.parametrize("replicas,zones", sorted(DRAIN_ORDER),
                         ids=[f"{r}-over-{z}" for r, z in sorted(DRAIN_ORDER)])
def test_scale_down_drains_the_highest_index_down_to_one(replicas, zones):
    drained, _ = drain_and_revive(replicas, zones)
    assert [index for index, _ in drained] == list(range(replicas - 1, 0, -1))


def drain_and_revive(replicas, zones):
    loop = EventLoop(VirtualClock())
    fleet = ReplicaSet(lambda i: FixedLatencySUT(), initial_replicas=replicas,
                       max_replicas=replicas, zones=zones)
    fleet.start_run(loop, lambda query, responses: None)

    def up_indices():
        return {r.index for r in fleet.available_replicas}

    drained = []
    while True:
        before = up_indices()
        if not fleet.scale_down():
            break
        (index,) = before - up_indices()
        drained.append((index, fleet.replicas[index].zone))
    revived = []
    while True:
        before = up_indices()
        if not fleet.scale_up():
            break
        (index,) = up_indices() - before
        revived.append((index, fleet.replicas[index].zone))
    return drained, revived


# -- the outlier detector -----------------------------------------------------

#: seed -> trail length, actions taken, and the trail's digest.
DETECTOR = {
    1: (9, {"eject": 3, "probe": 3, "readmit": 3},
        "df855239aa835986751bce8c2e4073d28dd0b50068bcc47c1de88c4393d7efdb"),
    2: (14, {"eject": 4, "probe": 5, "readmit": 4, "re-eject": 1},
        "335740157a87d399080df2883c29870f6592a75b3ef0d76053edbf70a8cd822a"),
    3: (11, {"eject": 3, "probe": 4, "readmit": 3, "re-eject": 1},
        "3c5ceceb03241116876862458db15dcc4363a89964b4c715667aaf1f46af27c8"),
    4: (14, {"eject": 4, "probe": 5, "readmit": 4, "re-eject": 1},
        "98daad4eea31fc6ac5eea8e6c20ce30e179adf523106c55a444bc9336f74fb2f"),
    5: (11, {"eject": 3, "probe": 4, "readmit": 3, "re-eject": 1},
        "e941c27fe9fecbf2fc2bd896322d439788de290ef8a6525232b0fb736bf7cdd5"),
    6: (14, {"eject": 4, "probe": 5, "readmit": 4, "re-eject": 1},
        "26960860ede19d965a58b70398f397c3fc845dd6bd30522b9be44244daafb8bb"),
}


class _Faults:
    """Brown replica 1 out ×12 over [0.3, 0.9), partition replica 3 over
    [1.2, 1.6): a latency outlier, then a failure-rate one."""

    def __init__(self, valves):
        self.valves = valves

    def start(self, loop, keep_going):
        slow, cut = self.valves[1], self.valves[3]
        loop.schedule_after(0.3, lambda: slow.degrade(12.0))
        loop.schedule_after(0.9, slow.restore)
        loop.schedule_after(1.2, cut.partition)
        loop.schedule_after(1.6, cut.restore)

    def stop(self):
        pass


def detector_trail(seed):
    valves = {}

    def factory(index):
        valves[index] = DegradedSUT(FixedLatencySUT(latency=0.002))
        return valves[index]

    fleet = ReplicaSet(factory, initial_replicas=4, seed=seed)
    detector = OutlierDetector(fleet, OutlierPolicy(), seed=seed)
    result = run_benchmark(fleet, EchoQSL(),
                           server_settings(3200, 800.0, seed=seed),
                           services=[_Faults(valves), detector])
    actions = {}
    for event in detector.trace:
        actions[event.action] = actions.get(event.action, 0) + 1
    return len(detector.trace), actions, digest(
        (detector.trace, run_fingerprint(result)))


@pytest.mark.parametrize("seed", sorted(DETECTOR))
def test_default_detector_trail_is_pinned(seed):
    assert detector_trail(seed) == DETECTOR[seed]


# -- the prefix cache's prefill delays ----------------------------------------

#: seed -> (prefill delays, run_fingerprint) digests: one cache, then a
#: 3-replica session-affinity fleet with a cache per replica.
PREFILL = {
    1: ("3d79c2c908533e4caa7f568969d7f362edd90fbf8c9452fd61f80a16deeaf436",
        "d0581c627afd8319f725924b166239d4a317d913747ce412ad5ebbff6faf79fb"),
    2: ("71259edd4d015e345bec753d7ec262d089c38a78f6e542fbcdb2e8aef2cdbbda",
        "d5081aebb4dd1bfea44dab18505bb7df2b6273c4f7667ead623a53a68d1524e2"),
    3: ("d45711f7c5a470fd5e60700a68e7efdec968bfa4b2bfc0e739bc6e4b2262134c",
        "1cb744f1346722bf104e6dc1e869beaf6f7ad238241ddf17e586d5f981e25d17"),
    5: ("426466a9803c47f0af73f8e292b7e60aef6ec0764e1d02ae651884734952778c",
        "13fa93cb04c7e0cb1c6645d2e7839d5bcfac9ae4f53ac768ca1986808b99767d"),
}
FLEET_PREFILL = {
    1: ("c0b3434a8d74437c39c840d4e1482d65496777e2d5492586e96760f640834aeb",
        "4354a03f5703956fdfe3971a9269d785cf283e22ac2dfca14d60b61052962c00"),
    2: ("fad5737b5587cdebee95f77d6011fd42805cae2ea60714dfcf7eb3495d8ef162",
        "fa10f31dd0425ef745159d19b666cba3c4c0c703e9b2df1796b7bec3d10f2ed7"),
    3: ("4c7866f3f23b9e42299740cbad9ae7c848e08bc84b43d122657dddce5cfd40d1",
        "f06236443afeb8c3edb28f4a65491ebdf590babe6886ebf914f6a1b80e53a284"),
    5: ("f7bdb448f001bd9880a809c8934e19e9f72e92a3ba60997dea548f25cfd2adf6",
        "509260c8afa13233e4d574bb8b802797435289d3032976a381dbe6ff2e37f1a5"),
}


class _Stamp(SutBase):
    """Answers at once and notes when each query reached it."""

    def __init__(self, seen):
        super().__init__("stamp")
        self.seen = seen

    def issue_query(self, query):
        self.seen[query.id] = self.loop.now
        self.complete(query, [])


def session_settings(seed):
    return TestSettings(
        scenario=Scenario.SESSION, server_target_qps=100.0,
        session_count=24, session_think_time_mean=0.05,
        min_duration=0.0, watchdog_timeout=600.0, seed=seed)


def prefill(result, seen):
    issued = {r.query.id: r.issue_time for r in result.log.records()}
    return digest(sorted((qid, seen[qid] - issued[qid]) for qid in seen)), \
        digest(run_fingerprint(result))


def single_prefill(seed):
    seen = {}
    result = run_benchmark(
        PrefixCacheSUT(_Stamp(seen), capacity_tokens=512), EchoQSL(),
        session_settings(seed))
    return prefill(result, seen)


def fleet_prefill(seed):
    seen = {}
    fleet = ReplicaSet(lambda i: _Stamp(seen), initial_replicas=3,
                       policy="session-affinity",
                       cache_factory=per_replica_cache_factory(1024))
    result = run_benchmark(fleet, EchoQSL(), session_settings(seed))
    return prefill(result, seen)


@pytest.mark.parametrize("seed", sorted(PREFILL))
def test_prefill_delays_are_pinned(seed):
    assert single_prefill(seed) == PREFILL[seed]


@pytest.mark.parametrize("seed", sorted(FLEET_PREFILL))
def test_per_replica_prefill_delays_are_pinned(seed):
    assert fleet_prefill(seed) == FLEET_PREFILL[seed]
