"""LoadGen-over-network: the benchmark's Network division.

The paper's SUT boundary (Fig. 3) is an in-process API; this package
moves it onto a wire without touching the LoadGen.  Three layers:

* :mod:`~repro.network.protocol` - the versioned, length-prefixed binary
  wire contract (framing, payload codec, strict malformed-input
  detection).
* :mod:`~repro.network.server` - :class:`InferenceServer`, a TCP server
  hosting any existing SUT behind a bounded admission queue, edge
  batching, and a worker pool.
* :mod:`~repro.network.client` - :class:`NetworkSUT`, the SUT adapter
  the unmodified LoadGen drives, with deadlines, retries, and
  reconnection.

Plus :mod:`~repro.network.simulated` - a virtual-time stand-in channel
(:class:`SimulatedChannelSUT`) for deterministic network-sensitivity
experiments.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": ("NetworkStats", "NetworkSUT", "parse_address"),
    "protocol": ("VERSION", "FrameReader", "FrameType", "ProtocolError"),
    "server": (
        "InferenceServer", "ServerConfig", "ServerStartupError", "ServerStats",
    ),
    "simulated": ("ChannelModel", "ChannelStats", "SimulatedChannelSUT"),
})
