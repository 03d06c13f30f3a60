"""Deterministic fault plans and the injector that executes them.

The fault model covers the misbehavior modes real submission stacks
exhibit (MLPerf Mobile's flaky runtimes dropped, duplicated, and delayed
completions; the v0.5 round leaned on audits to catch worse):

* ``DROP``        - the response never arrives;
* ``DUPLICATE``   - the completion is delivered twice;
* ``UNSOLICITED`` - a completion arrives for a query never issued;
* ``MISSIZED``    - the response set has the wrong number of entries;
* ``CORRUPT``     - responses name sample ids that are not in the query;
* ``DELAY``       - a transient latency spike on top of the service time;
* ``STALL``       - the SUT crashes: this and every later query vanish.

Determinism mirrors the sampler: every fault decision is a pure function
of ``(plan seed, query id, attempt)``, drawn from its own
``SeedSequence`` stream.  Two runs with the same seed and plan therefore
inject byte-identical fault schedules regardless of event interleaving,
and a retried query (attempt > 0) gets a fresh draw - which is what
makes transient faults recoverable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..bounds import POSITIVE, UNIT, check_range


class FaultType(enum.Enum):
    """The injectable misbehavior classes."""

    DROP = "drop"
    DUPLICATE = "duplicate"
    UNSOLICITED = "unsolicited"
    MISSIZED = "missized"
    CORRUPT = "corrupt"
    DELAY = "delay"
    STALL = "stall"


#: Faults a bounded retry can recover from: the next attempt gets a
#: fresh draw, so a drop or a latency spike is not fatal.  (Duplicate /
#: unsolicited / malformed completions are filtered, not retried.)
TRANSIENT_FAULTS = frozenset({FaultType.DROP, FaultType.DELAY})

#: Gap between the twin completions of a DUPLICATE fault, seconds.
DUPLICATE_LAG = 0.001

#: Stable iteration order for the cumulative-probability draw.
_FAULT_ORDER: Tuple[FaultType, ...] = tuple(FaultType)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, per-query-probability fault schedule.

    ``rates`` maps each fault type to the probability that one (query,
    attempt) suffers it; at most one fault is injected per attempt, so
    the rates must sum to at most 1.
    """

    rates: Mapping[FaultType, float] = field(default_factory=dict)
    #: Mean extra latency of a DELAY spike, seconds (exponential).
    delay_scale: float = 0.050
    seed: int = 0xFA017

    def __post_init__(self) -> None:
        total = 0.0
        for fault, rate in self.rates.items():
            if not isinstance(fault, FaultType):
                raise ValueError(f"unknown fault type {fault!r}")
            total += check_range(f"rate for {fault.value}", rate, UNIT)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"fault rates sum to {total:.4f}; at most one fault is "
                "injected per query, so they must sum to <= 1"
            )
        check_range("delay_scale", self.delay_scale, POSITIVE)

    @classmethod
    def single(cls, fault: FaultType, rate: float, **kwargs) -> "FaultPlan":
        """A plan injecting exactly one fault class at ``rate``."""
        return cls(rates={fault: rate}, **kwargs)

    @classmethod
    def uniform(cls, rate_per_fault: float, **kwargs) -> "FaultPlan":
        """Every fault class at the same per-query rate."""
        return cls(rates={f: rate_per_fault for f in FaultType}, **kwargs)

    @classmethod
    def transient(cls, rate_per_fault: float, **kwargs) -> "FaultPlan":
        """Only retry-recoverable faults (drops and delay spikes)."""
        return cls(
            rates={f: rate_per_fault for f in TRANSIENT_FAULTS}, **kwargs
        )


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one (query, attempt)."""

    fault: FaultType
    #: Extra latency, seconds; only meaningful for DELAY.
    delay: float = 0.0


class FaultInjector:
    """Executes a :class:`FaultPlan` deterministically.

    Stateless across queries except for bookkeeping: the decision for
    ``(query_id, attempt)`` depends only on the plan's seed, never on
    arrival order, so fault schedules are reproducible run to run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: Count of injected faults by type, for reports and tests.
        self.injected: Dict[FaultType, int] = {}
        #: Chronological (query_id, attempt, fault) trace.
        self.trace: List[Tuple[int, int, FaultType]] = []

    def reset(self) -> None:
        """Clear bookkeeping at the start of a run."""
        self.injected = {}
        self.trace = []

    def decide(self, query_id: int, attempt: int = 0) -> Optional[FaultDecision]:
        """The fault (if any) for this query attempt.

        Pure in ``(plan.seed, query_id, attempt)`` apart from the
        bookkeeping side effects.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence((self.plan.seed, query_id, attempt))
        )
        draw = rng.random()
        cumulative = 0.0
        for fault in _FAULT_ORDER:
            cumulative += self.plan.rates.get(fault, 0.0)
            if draw < cumulative:
                delay = (
                    float(rng.exponential(self.plan.delay_scale))
                    if fault is FaultType.DELAY
                    else 0.0
                )
                self.injected[fault] = self.injected.get(fault, 0) + 1
                self.trace.append((query_id, attempt, fault))
                return FaultDecision(fault=fault, delay=delay)
        return None
