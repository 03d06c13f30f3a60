"""SLO-driven capacity search: find the max arrival rate a SUT sustains.

The Server scenario takes a *target* QPS as an input and returns a
verdict; the question operators actually ask is the inverse - "what is
the highest arrival rate at which this system still meets its latency
SLO?".  :class:`SweepHarness` answers it the way FlexBench argues
capacity questions should be answered: by *searching* the rate axis
rather than guessing, running one full (virtual-clock, deterministic)
Server run per probe and judging each probe with the referee's own
validity rules.

Both search modes are :func:`repro.core.search.max_valid` on a linear
axis with step ``resolution``:

* ``"binary"`` - bisect the bracket ``[qps_low, qps_high]`` down to
  ``resolution``.  Sound whenever validity is monotone in the arrival
  rate (true for capacity-limited SUTs; the benchmark study checks the
  found rate against a dense step scan).
* ``"step"`` - walk upward from ``qps_low`` in ``resolution``
  increments until the first invalid run, never past ``qps_high``
  (probed itself when the last step would jump over it); exact by
  construction, linear in the range, and the reference the binary mode
  is tested against.

The result is a :class:`SweepResult` whose :meth:`~SweepResult.report`
is a ``BENCH_fleet.json``-style capacity document (the ``repro sweep``
CLI writes it with ``--report``): the SLO probed against, every probe's
rate/verdict/p99, and the max compliant rate found.  Sweep semantics
and mode trade-offs are discussed in ``docs/fleet.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..bounds import AT_LEAST_TWO, POSITIVE, check_range
from ..core.config import Scenario, TestSettings
from ..core.loadgen import LoadGenResult, run_benchmark
from ..core.search import linear, max_valid
from ..core.sut import QuerySampleLibrary, SystemUnderTest


@dataclass(frozen=True)
class SweepConfig:
    """Search-space knobs for :class:`SweepHarness`."""

    #: Bracket of arrival rates to search, queries per second.
    qps_low: float = 1.0
    qps_high: float = 256.0
    #: Terminal bracket width (binary) or step size (step), qps.
    resolution: float = 1.0
    #: ``"binary"`` or ``"step"``.
    mode: str = "binary"
    #: Hard cap on probe runs, a stuck-search backstop.
    max_probes: int = 32

    def __post_init__(self) -> None:
        check_range("qps_low", self.qps_low, POSITIVE)
        if self.qps_high <= self.qps_low:
            raise ValueError(
                "qps_high must exceed qps_low, got "
                f"{self.qps_high} <= {self.qps_low}")
        check_range("resolution", self.resolution, POSITIVE)
        if self.mode not in ("binary", "step"):
            raise ValueError(
                f"mode must be 'binary' or 'step', got {self.mode!r}")
        check_range("max_probes", self.max_probes, AT_LEAST_TWO)


class SweepProbe(NamedTuple):
    """One probe run: the rate asked for and how the run judged it."""

    qps: float
    valid: bool
    latency_p99: float
    completed: int
    reasons: Tuple[str, ...]

    @classmethod
    def judged(cls, qps: float, result: LoadGenResult) -> "SweepProbe":
        """The probe row of a finished run at ``qps``."""
        return cls(
            qps=qps,
            valid=result.valid,
            latency_p99=result.metrics.latency_p99,
            completed=result.log.completed_count,
            reasons=tuple(result.validity.reasons),
        )


@dataclass
class SweepResult:
    """Outcome of one capacity search."""

    config: SweepConfig
    #: The SLO the probes were judged against, seconds; ``None`` for a
    #: session sweep without one.
    latency_bound: Optional[float]
    #: Allowed fraction of queries over the bound.
    max_violation_fraction: float
    #: Every probe, in execution order.
    probes: List[SweepProbe] = field(default_factory=list)
    #: Highest SLO-compliant rate found; ``None`` when even ``qps_low``
    #: failed (the bracket does not contain the capacity).
    max_qps: Optional[float] = None

    def report(self) -> dict:
        """The ``BENCH_fleet.json``-style capacity document."""
        return {
            "benchmark": "fleet-capacity-sweep",
            "mode": self.config.mode,
            "bracket_qps": [self.config.qps_low, self.config.qps_high],
            "resolution_qps": self.config.resolution,
            "slo": {
                "latency_bound_s": self.latency_bound,
                "max_violation_fraction": self.max_violation_fraction,
            },
            "max_valid_qps": self.max_qps,
            "probe_count": len(self.probes),
            "probes": [
                {
                    "qps": p.qps,
                    "valid": p.valid,
                    "latency_p99_s": p.latency_p99,
                    "completed": p.completed,
                    "reasons": list(p.reasons),
                }
                for p in self.probes
            ],
        }

    def write(self, path) -> Path:
        """Write :meth:`report` as JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.report(), indent=2) + "\n")
        return path

    def summary(self) -> str:
        found = ("below the bracket" if self.max_qps is None
                 else f"{self.max_qps:.3g} qps")
        bound = ("no latency bound" if self.latency_bound is None
                 else f"bound {self.latency_bound * 1e3:g} ms")
        return (f"max SLO-compliant rate: {found} "
                f"({len(self.probes)} probe runs, {bound})")


class SweepHarness:
    """Binary-search / step an arrival rate against the SLO.

    Works on both rate-driven scenarios: the Server scenario (queries/s)
    and the session scenario (sessions/s - ``server_target_qps`` is the
    session arrival rate there, see ``docs/sessions.md``), so a fleet
    with per-replica prefix caches can have its *conversation* capacity
    searched the same way.

    A probe is a function ``qps -> SweepProbe``.  The default runs
    ``settings`` at that rate over ``qsl`` against a *fresh* SUT from
    ``make_sut`` (probe runs must not share warm caches, breaker state,
    or worker pools) and closes it; a caller whose probe needs more
    passes its own as ``probe``, and ``None`` for ``make_sut`` and ``qsl``.
    """

    #: Scenarios whose load is an arrival rate the sweep can bisect.
    _RATE_SCENARIOS = (Scenario.SERVER, Scenario.SESSION)

    def __init__(
        self,
        make_sut: Optional[Callable[[], SystemUnderTest]],
        qsl: Optional[QuerySampleLibrary],
        settings: TestSettings,
        config: Optional[SweepConfig] = None,
        *,
        probe: Optional[Callable[[float], SweepProbe]] = None,
    ) -> None:
        if settings.scenario not in self._RATE_SCENARIOS:
            raise ValueError(
                "capacity sweeps are a Server/session-scenario tool; got "
                f"{settings.scenario}")
        if probe is None:
            def probe(qps: float) -> SweepProbe:
                sut = make_sut()
                try:
                    return SweepProbe.judged(qps, run_benchmark(
                        sut, qsl,
                        settings.with_overrides(server_target_qps=qps)))
                finally:
                    sut.close()
        self.settings = settings
        self.config = config if config is not None else SweepConfig()
        self.probe = probe

    def run(self) -> SweepResult:
        try:
            bound = self.settings.resolved_server_latency_bound
        except ValueError:
            # A session sweep may carry no latency bound at all - the
            # referee then judges on session validity (stalls, aborts,
            # completion minimums) alone.
            bound = None
        result = SweepResult(
            config=self.config,
            latency_bound=bound,
            max_violation_fraction=(
                self.settings.resolved_max_violation_fraction),
        )

        def probe(qps: float) -> bool:
            outcome = self.probe(qps)
            result.probes.append(outcome)
            return outcome.valid

        cfg = self.config
        # Binary mode brackets with qps_high at once; step mode grows
        # one resolution at a time up to it.
        binary = cfg.mode == "binary"
        result.max_qps = max_valid(
            probe, cfg.qps_low, linear(cfg.resolution),
            hi=cfg.qps_high if binary else None,
            ceiling=None if binary else cfg.qps_high,
            max_probes=cfg.max_probes).value
        return result
