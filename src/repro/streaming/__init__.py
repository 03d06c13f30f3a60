"""Streaming inference: token chunks, TTFT/TPOT SLOs, and goodput.

Modern LLM serving rounds of MLPerf (and production benchmarks such as
inference-perf) measure *streamed* responses: the answer arrives as a
sequence of token chunks, and the scores that matter are
time-to-first-token (TTFT), time-per-output-token (TPOT), and *goodput*
- throughput counting only queries that met every SLO.  This package is
that response path for the reproduction:

* :class:`StreamModel` / :class:`StreamPlan` - seeded, per-query
  deterministic chunk-count / chunk-size / inter-token-delay models, so
  a virtual-clock streaming run is bit-identical across reruns;
* :class:`StreamingSUT` - wraps any existing SUT and replays its answer
  as a chunked stream through the regular responder channel
  (``SutBase.emit_chunk``), ending with the normal completion - the
  compat shim that leaves every non-streaming SUT and wrapper working
  unchanged;
* :class:`StreamReassembler` - restores sequence order for chunks that
  crossed a reordering transport (``SimulatedChannelSUT``), so a lossy
  channel and an in-process run reach identical verdicts.

The referee half lives in ``repro.core``: ``QueryLog.record_chunk``
classifies out-of-order / duplicate / truncated streams as misbehavior,
``TestSettings.ttft_target_ns`` / ``tpot_target_ns`` carry the SLOs,
and ``validate_run`` budgets violations like the classic latency rule.
See ``docs/streaming.md`` for semantics and a worked example.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "model": ("ChunkEvent", "StreamModel", "StreamPlan"),
    "reassembly": ("StreamReassembler",),
    "sut": ("StreamingSUT", "streaming_echo"),
})
