"""Analytic inference-device models.

The paper's fleet of submissions spans CPUs, GPUs, DSPs, FPGAs, and
ASICs across four orders of magnitude of performance (Section VI-D).
Each simulated device is characterized by a handful of parameters with
direct architectural meaning:

* ``peak_gops`` - achievable arithmetic throughput at full utilization;
* ``base_utilization`` - the fraction of peak reached by a vanishingly
  small dispatch (driver/pipeline floor);
* ``saturation_gops`` - the amount of work (batch x GOPs/sample) in one
  dispatch needed to reach full utilization.  Utilization ramps with
  *work*, not sample count: a single 433-GOP SSD-ResNet-34 image fills a
  wide accelerator by itself, while MobileNet needs a large batch to do
  the same - which is why small models gain the most from batching;
* ``overhead`` - fixed per-dispatch cost (kernel launch, DMA, driver);
* ``structure_efficiency`` - how well the device's dataflow fits a
  model's *structure*, independent of raw operation count.  Section
  VII-D observes that SSD-ResNet-34 costs 175x the operations of
  SSD-MobileNet-v1 but only runs 50-60x slower: big dense convolutions
  utilize hardware far better than depthwise/pointwise mixtures.  The
  per-(device, motif) efficiency table expresses exactly that.

``cost_at`` composes these into the latency and energy of one batched
dispatch at a given structural efficiency (``motif_efficiency`` looks a
motif's up); ``service_time`` and ``dispatch_energy`` are its two halves
for a dense-CNN workload; everything downstream (scenario behaviour,
Figs 6 and 8) is emergent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..bounds import (AT_LEAST_ONE, FRACTION, NON_NEGATIVE, POSITIVE,
                      check_range)


class ProcessorType(enum.Enum):
    CPU = "CPU"
    GPU = "GPU"
    DSP = "DSP"
    FPGA = "FPGA"
    ASIC = "ASIC"


class ComputeMotif(enum.Enum):
    """Workload structure classes with distinct utilization behaviour."""

    DENSE_CNN = "dense_cnn"          # ResNet-style: big GEMMs
    DEPTHWISE_CNN = "depthwise_cnn"  # MobileNet-style: thin layers
    RNN = "rnn"                      # GNMT-style: sequential, small GEMMs


@dataclass(frozen=True)
class DeviceModel:
    """Analytic latency model of one inference device."""

    name: str
    processor: ProcessorType
    peak_gops: float
    base_utilization: float = 0.5
    saturation_gops: float = 8.0
    overhead: float = 1e-3
    max_batch: int = 128
    engines: int = 1
    #: Per-motif structural efficiency in (0, 1].
    structure_efficiency: Dict[ComputeMotif, float] = field(
        default_factory=dict
    )
    #: Power draw while idle and at full utilization (whole device).
    #: The paper's fleet spans "three orders of magnitude in power
    #: consumption"; defaults model a small accelerator.
    idle_watts: float = 1.0
    peak_watts: float = 10.0
    #: DVFS/thermal behaviour: a cold device runs ``cold_boost`` x its
    #: equilibrium speed and decays toward 1.0 with time constant
    #: ``thermal_time_constant`` seconds.  This is exactly why Section
    #: III-D mandates >= 60-second runs: "the minimum run time ensures
    #: we measure the equilibrium behavior of power-management systems
    #: and systems that support dynamic voltage and frequency scaling".
    cold_boost: float = 1.0
    thermal_time_constant: float = 20.0

    def __post_init__(self) -> None:
        check_range("peak_gops", self.peak_gops, POSITIVE)
        check_range("base_utilization", self.base_utilization, FRACTION)
        check_range("saturation_gops", self.saturation_gops, POSITIVE)
        check_range("overhead", self.overhead, NON_NEGATIVE)
        check_range("max_batch", self.max_batch, AT_LEAST_ONE)
        check_range("engines", self.engines, AT_LEAST_ONE)
        for motif, value in self.structure_efficiency.items():
            if not isinstance(motif, ComputeMotif):
                # A string key would be silently ignored by every lookup.
                raise ValueError(
                    f"structure_efficiency key {motif!r} is not a "
                    "ComputeMotif")
            check_range(f"efficiency for {motif}", value, FRACTION)
        check_range("idle_watts", self.idle_watts, NON_NEGATIVE)
        if self.peak_watts < self.idle_watts:
            raise ValueError(
                f"{self.name}: peak_watts must be >= idle_watts"
            )
        check_range("cold_boost", self.cold_boost, AT_LEAST_ONE)
        check_range("thermal_time_constant",
                    self.thermal_time_constant, POSITIVE)

    def motif_efficiency(self, motif: ComputeMotif) -> float:
        """How well ``motif`` fits this device; 1.0 unless tabulated."""
        return self.structure_efficiency.get(motif, 1.0)

    def cost_at(self, gops_per_sample: float, batch: int,
                efficiency: float) -> Tuple[float, float]:
        """(seconds, Joules) of one dispatch of ``batch`` samples at a
        structural ``efficiency``: the one body of the cost formula.  A
        SUT that serves one motif resolves its efficiency once and
        calls this per dispatch."""
        if gops_per_sample <= 0:
            raise ValueError(
                f"gops_per_sample must be positive, got {gops_per_sample}"
            )
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        work = batch * gops_per_sample
        saturation = self.saturation_gops
        base = self.base_utilization
        # min(work, saturation), which returns work unless saturation < work.
        utilization = base + (1.0 - base) * (
            (saturation if saturation < work else work) / saturation)
        duration = self.overhead + work / (
            self.peak_gops * utilization * efficiency)
        return duration, duration * (
            self.idle_watts
            + (self.peak_watts - self.idle_watts) * utilization
        )

    def service_time(self, gops_per_sample: float, batch: int) -> float:
        """Seconds to process one dispatch of ``batch`` samples of a
        dense-CNN workload."""
        return self.cost_at(gops_per_sample, batch, self.motif_efficiency(
            ComputeMotif.DENSE_CNN))[0]

    def throughput_at_batch(self, gops_per_sample: float, batch: int) -> float:
        """Samples/second of one engine streaming dispatches of ``batch``
        (a dense-CNN workload)."""
        return batch / self.service_time(gops_per_sample, batch)

    def best_offline_throughput(self, gops_per_sample: float) -> float:
        """Throughput with the best allowed batch, over all engines (a
        dense-CNN workload)."""
        best = max(
            self.throughput_at_batch(gops_per_sample, b)
            for b in _batch_candidates(self.max_batch)
        )
        return best * self.engines

    # -- DVFS / thermal behaviour -----------------------------------------------

    def speed_multiplier(self, elapsed_seconds: float) -> float:
        """Instantaneous speed relative to equilibrium at run time ``t``.

        Starts at ``cold_boost`` and decays exponentially to 1.0; the
        published metrics are defined at equilibrium, which is what a
        >= 60 s run measures.
        """
        if elapsed_seconds < 0:
            raise ValueError("elapsed_seconds must be >= 0")
        if self.cold_boost == 1.0:
            return 1.0
        decay = math.exp(-elapsed_seconds / self.thermal_time_constant)
        return 1.0 + (self.cold_boost - 1.0) * decay

    # -- power/energy ----------------------------------------------------------

    def dispatch_energy(self, gops_per_sample: float, batch: int) -> float:
        """Joules consumed by one dispatch of a dense-CNN workload (active
        power x duration)."""
        return self.cost_at(gops_per_sample, batch, self.motif_efficiency(
            ComputeMotif.DENSE_CNN))[1]

    def energy_per_sample(self, gops_per_sample: float, batch: int) -> float:
        """Joules per inference of a dense-CNN workload at the given
        batch size."""
        return self.dispatch_energy(gops_per_sample, batch) / batch


def _batch_candidates(max_batch: int):
    batch = 1
    while batch < max_batch:
        yield batch
        batch *= 2
    yield max_batch
