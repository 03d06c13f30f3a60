"""The simulated submission fleet (paper Section VI).

The v0.5 closed division released 166 results from over 30 systems
spanning four orders of magnitude - embedded devices to data-center
accelerators - across CPUs, GPUs, DSPs, FPGAs, and ASICs (Figs. 5, 7,
8; Tables VI, VII).  This module defines a fleet of simulated systems
whose

* device parameters span the published performance range,
* frameworks reproduce the Table VII framework-architecture matrix, and
* submission plans (which task x scenario combos each system enters)
  sum exactly to the Table VI coverage matrix - including the empty
  GNMT-multistream cell.

Submission choices follow the paper's observed pattern: mobile and
embedded parts enter single-stream (and a few multistream) for the light
vision models; data-center parts enter server/offline for the heavy
models and GNMT; mid-range edge parts carry most of the multistream
column (the scenario models multi-camera automotive/industrial use).
Every planned server/multistream combo is capability-checked: the
device can meet the task's Table III bound at least at the minimum
rate, so the whole plan is realizable by the tuning harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.config import Scenario, Task
from .device import ComputeMotif, DeviceModel, ProcessorType
from .simulated import WorkloadProfile

#: Short scenario aliases used in submission plans.
_SCN = {
    "SS": Scenario.SINGLE_STREAM,
    "MS": Scenario.MULTI_STREAM,
    "S": Scenario.SERVER,
    "O": Scenario.OFFLINE,
}

#: Task aliases.
_TASK = {
    "RN": Task.IMAGE_CLASSIFICATION_HEAVY,
    "MN": Task.IMAGE_CLASSIFICATION_LIGHT,
    "SR": Task.OBJECT_DETECTION_HEAVY,
    "SM": Task.OBJECT_DETECTION_LIGHT,
    "G": Task.MACHINE_TRANSLATION,
}


def task_workload(task: Task) -> WorkloadProfile:
    """The simulated workload profile for one Table I model."""
    # Imported here: the model registry and architectures are read only
    # when a plan is priced, not by importers of the fleet tables.
    from ..models.arch.gnmt import build_gnmt
    from ..models.registry import model_info

    info = model_info(task)
    if task is Task.MACHINE_TRANSLATION:
        # Table I quotes no GOPs for GNMT; use the architecture's cost at
        # the WMT16 mean sentence length, and give it the sentence-length
        # variability that drives its server-scenario padding waste.
        return WorkloadProfile(
            gops_per_sample=build_gnmt().gops(),
            motif=ComputeMotif.RNN,
            variability=0.6,
        )
    if task in (Task.IMAGE_CLASSIFICATION_LIGHT, Task.OBJECT_DETECTION_LIGHT):
        motif = ComputeMotif.DEPTHWISE_CNN
    else:
        motif = ComputeMotif.DENSE_CNN
    return WorkloadProfile(gops_per_sample=info.gops_per_input, motif=motif)


@dataclass(frozen=True)
class FleetSystem:
    """One submitter system: device, software stack, submission plan."""

    device: DeviceModel
    framework: str
    category: str                      # available / preview / rdo
    #: task alias -> scenario aliases, e.g. {"RN": ("S", "O")}.
    plan: Dict[str, Tuple[str, ...]]
    batch_window: float = 0.0

    @property
    def name(self) -> str:
        return self.device.name

    def submissions(self) -> List[Tuple[Task, Scenario]]:
        out = []
        for task_alias, scenarios in self.plan.items():
            for scenario_alias in scenarios:
                out.append((_TASK[task_alias], _SCN[scenario_alias]))
        return out


def _eff(dense: float, depthwise: float, rnn: float) -> Dict[ComputeMotif, float]:
    return {
        ComputeMotif.DENSE_CNN: dense,
        ComputeMotif.DEPTHWISE_CNN: depthwise,
        ComputeMotif.RNN: rnn,
    }


def build_fleet() -> List[FleetSystem]:
    """The full simulated fleet: 33 systems, 166 planned results."""
    return [
        # ---- data-center accelerators -------------------------------------
        FleetSystem(
            DeviceModel("dc-asic-tpu", ProcessorType.ASIC, peak_gops=200_000,
                        base_utilization=0.04, saturation_gops=500,
                        overhead=0.5e-3, max_batch=256,
                        structure_efficiency=_eff(1.0, 0.35, 0.25),
                        idle_watts=90, peak_watts=350),
            framework="TensorFlow", category="available",
            plan={"RN": ("S", "O"), "SR": ("S", "O"), "G": ("S", "O")},
            batch_window=2e-3,
        ),
        FleetSystem(
            DeviceModel("dc-gpu-a", ProcessorType.GPU, peak_gops=150_000,
                        base_utilization=0.05, saturation_gops=120,
                        overhead=0.4e-3, max_batch=128,
                        structure_efficiency=_eff(1.0, 0.35, 0.3),
                        idle_watts=80, peak_watts=320),
            framework="TensorRT", category="available",
            plan={"RN": ("SS", "S", "O"), "MN": ("S", "O"),
                  "SM": ("S", "O"), "SR": ("SS", "MS", "S", "O"),
                  "G": ("SS", "S", "O")},
            batch_window=1e-3,
        ),
        FleetSystem(
            DeviceModel("dc-gpu-b", ProcessorType.GPU, peak_gops=120_000,
                        base_utilization=0.06, saturation_gops=100,
                        overhead=0.4e-3, max_batch=128,
                        structure_efficiency=_eff(1.0, 0.4, 0.3),
                        idle_watts=70, peak_watts=260),
            framework="TensorRT", category="available",
            plan={"RN": ("S", "O"), "MN": ("S",), "SM": ("S",),
                  "SR": ("MS", "S", "O"), "G": ("S", "O")},
            batch_window=1e-3,
        ),
        FleetSystem(
            DeviceModel("dc-gpu-c", ProcessorType.GPU, peak_gops=80_000,
                        base_utilization=0.06, saturation_gops=200,
                        overhead=0.4e-3, max_batch=128,
                        structure_efficiency=_eff(1.0, 0.35, 0.3),
                        idle_watts=60, peak_watts=200),
            framework="TensorRT", category="available",
            plan={"RN": ("S", "O"), "SM": ("S", "O"),
                  "SR": ("MS", "S", "O"), "G": ("S", "O")},
            batch_window=1e-3,
        ),
        FleetSystem(
            DeviceModel("dc-asic-hanguang", ProcessorType.ASIC,
                        peak_gops=280_000, base_utilization=0.08,
                        saturation_gops=400, overhead=0.2e-3, max_batch=64,
                        structure_efficiency=_eff(1.0, 0.4, 0.2),
                        idle_watts=80, peak_watts=300),
            framework="HanGuang AI", category="available",
            plan={"RN": ("S", "O")},
        ),
        FleetSystem(
            DeviceModel("dc-asic-habana", ProcessorType.ASIC,
                        peak_gops=160_000, base_utilization=0.08,
                        saturation_gops=300, overhead=0.3e-3, max_batch=64,
                        structure_efficiency=_eff(1.0, 0.45, 0.35),
                        idle_watts=70, peak_watts=250),
            framework="Synapse", category="available",
            plan={"RN": ("S", "O"), "SR": ("O",), "G": ("S", "O")},
        ),
        FleetSystem(
            DeviceModel("dc-asic-npx", ProcessorType.ASIC, peak_gops=100_000,
                        base_utilization=0.08, saturation_gops=200,
                        overhead=0.3e-3, max_batch=64,
                        structure_efficiency=_eff(1.0, 0.35, 0.3),
                        idle_watts=50, peak_watts=180),
            framework="TensorFlow", category="preview",
            plan={"RN": ("S", "O"), "SM": ("S", "O"), "SR": ("S", "O"),
                  "G": ("O",)},
        ),
        # ---- data-center CPUs ------------------------------------------------
        FleetSystem(
            DeviceModel("dc-cpu-xeon", ProcessorType.CPU, peak_gops=2_500,
                        base_utilization=0.7, saturation_gops=15,
                        overhead=0.15e-3, max_batch=8, engines=2,
                        structure_efficiency=_eff(1.0, 0.85, 0.7),
                        idle_watts=90, peak_watts=270),
            framework="OpenVINO", category="available",
            plan={"RN": ("S", "O"), "MN": ("S", "O"), "G": ("S", "O")},
        ),
        FleetSystem(
            DeviceModel("dc-cpu-onnx", ProcessorType.CPU, peak_gops=1_400,
                        base_utilization=0.7, saturation_gops=12,
                        overhead=0.2e-3, max_batch=8, engines=2,
                        structure_efficiency=_eff(1.0, 0.85, 0.65),
                        idle_watts=80, peak_watts=230),
            framework="ONNX", category="available",
            plan={"RN": ("O",), "MN": ("S", "O"), "G": ("O",)},
        ),
        FleetSystem(
            DeviceModel("dc-cpu-epyc", ProcessorType.CPU, peak_gops=2_000,
                        base_utilization=0.7, saturation_gops=12,
                        overhead=0.15e-3, max_batch=8, engines=2,
                        structure_efficiency=_eff(1.0, 0.85, 0.7),
                        idle_watts=85, peak_watts=250),
            framework="PyTorch", category="available",
            plan={"MN": ("S",), "SM": ("O",), "G": ("O",)},
        ),
        # ---- FPGAs -----------------------------------------------------------
        FleetSystem(
            DeviceModel("fpga-cloud", ProcessorType.FPGA, peak_gops=25_000,
                        base_utilization=0.35, saturation_gops=60,
                        overhead=0.3e-3, max_batch=16,
                        structure_efficiency=_eff(0.9, 0.3, 0.4),
                        idle_watts=30, peak_watts=100),
            framework="FuriosaAI", category="preview",
            plan={"RN": ("SS", "S", "O"), "SM": ("O",), "SR": ("S", "O")},
        ),
        FleetSystem(
            DeviceModel("fpga-edge", ProcessorType.FPGA, peak_gops=800,
                        base_utilization=0.45, saturation_gops=20,
                        overhead=0.4e-3, max_batch=8,
                        structure_efficiency=_eff(0.9, 0.3, 0.4),
                        idle_watts=5, peak_watts=20),
            framework="FuriosaAI", category="preview",
            plan={"RN": ("SS", "MS", "O"), "SM": ("MS", "O"), "SR": ("O",)},
        ),
        # ---- workstation / edge GPUs ----------------------------------------
        FleetSystem(
            DeviceModel("ws-gpu", ProcessorType.GPU, peak_gops=50_000,
                        base_utilization=0.06, saturation_gops=150,
                        overhead=0.5e-3, max_batch=64,
                        structure_efficiency=_eff(1.0, 0.35, 0.3),
                        idle_watts=50, peak_watts=180),
            framework="TensorRT", category="available",
            plan={"RN": ("SS", "S", "O"), "SM": ("S", "O"),
                  "SR": ("SS", "MS", "S", "O")},
            batch_window=1e-3,
        ),
        FleetSystem(
            DeviceModel("edge-gpu", ProcessorType.GPU, peak_gops=1_000,
                        base_utilization=0.15, saturation_gops=60,
                        overhead=0.8e-3, max_batch=32,
                        structure_efficiency=_eff(1.0, 0.35, 0.35),
                        idle_watts=4, peak_watts=15),
            framework="TensorRT", category="available",
            plan={"RN": ("SS", "MS", "O"), "MN": ("SS",),
                  "SM": ("SS", "MS", "O"), "SR": ("O",)},
        ),
        FleetSystem(
            DeviceModel("robot-gpu", ProcessorType.GPU, peak_gops=4_000,
                        base_utilization=0.1, saturation_gops=150,
                        overhead=0.6e-3, max_batch=32,
                        structure_efficiency=_eff(1.0, 0.45, 0.35),
                        idle_watts=12, peak_watts=45),
            framework="TensorFlow", category="available",
            plan={"RN": ("SS", "MS", "O"), "SR": ("SS", "O")},
        ),
        FleetSystem(
            DeviceModel("auto-asic", ProcessorType.ASIC, peak_gops=3_000,
                        base_utilization=0.2, saturation_gops=100,
                        overhead=0.5e-3, max_batch=16,
                        structure_efficiency=_eff(1.0, 0.35, 0.3),
                        idle_watts=10, peak_watts=40),
            framework="TensorFlow", category="preview",
            plan={"RN": ("SS", "MS", "O"), "SM": ("MS", "O"),
                  "SR": ("SS", "O")},
        ),
        # ---- desktop / laptop / small-office CPUs ----------------------------
        FleetSystem(
            DeviceModel("arm-server", ProcessorType.CPU, peak_gops=600,
                        base_utilization=0.7, saturation_gops=10,
                        overhead=0.2e-3, max_batch=8, engines=2,
                        structure_efficiency=_eff(1.0, 0.7, 0.7),
                        idle_watts=25, peak_watts=90),
            framework="ArmNN", category="available",
            plan={"RN": ("SS", "O"), "MN": ("SS", "O")},
        ),
        FleetSystem(
            DeviceModel("desktop-cpu", ProcessorType.CPU, peak_gops=200,
                        base_utilization=0.8, saturation_gops=6,
                        overhead=0.1e-3, max_batch=16,
                        structure_efficiency=_eff(1.0, 0.75, 0.75),
                        idle_watts=15, peak_watts=65),
            framework="PyTorch", category="available",
            plan={"RN": ("SS", "O"), "MN": ("SS", "O"), "G": ("SS", "O")},
        ),
        FleetSystem(
            DeviceModel("laptop-cpu", ProcessorType.CPU, peak_gops=100,
                        base_utilization=0.8, saturation_gops=5,
                        overhead=0.1e-3, max_batch=8,
                        structure_efficiency=_eff(1.0, 0.75, 0.8),
                        idle_watts=5, peak_watts=22),
            framework="TensorFlow", category="available",
            plan={"RN": ("SS", "O"), "MN": ("SS", "O"), "SM": ("SS", "O"),
                  "G": ("O",)},
        ),
        FleetSystem(
            DeviceModel("mini-pc-cpu", ProcessorType.CPU, peak_gops=150,
                        base_utilization=0.8, saturation_gops=5,
                        overhead=0.15e-3, max_batch=8,
                        structure_efficiency=_eff(1.0, 0.75, 0.75),
                        idle_watts=8, peak_watts=28),
            framework="OpenVINO", category="available",
            plan={"RN": ("SS", "O"), "MN": ("SS",)},
        ),
        # ---- mobile SoCs ------------------------------------------------------
        FleetSystem(
            DeviceModel("mobile-dsp-a", ProcessorType.DSP, peak_gops=60,
                        base_utilization=0.6, saturation_gops=3,
                        overhead=1.5e-3, max_batch=4,
                        structure_efficiency=_eff(0.9, 0.6, 0.5),
                        idle_watts=0.3, peak_watts=1.8),
            framework="SNPE", category="available",
            plan={"RN": ("SS",), "MN": ("SS", "MS", "O"), "SM": ("SS", "O")},
        ),
        FleetSystem(
            DeviceModel("mobile-dsp-b", ProcessorType.DSP, peak_gops=30,
                        base_utilization=0.6, saturation_gops=3,
                        overhead=2e-3, max_batch=4,
                        structure_efficiency=_eff(0.9, 0.6, 0.5),
                        idle_watts=0.25, peak_watts=1.2),
            framework="SNPE", category="available",
            plan={"MN": ("SS",), "SM": ("SS",)},
        ),
        FleetSystem(
            DeviceModel("smartphone-soc-a", ProcessorType.DSP, peak_gops=45,
                        base_utilization=0.6, saturation_gops=3,
                        overhead=1.5e-3, max_batch=4,
                        structure_efficiency=_eff(0.9, 0.6, 0.5),
                        idle_watts=0.3, peak_watts=1.5),
            framework="SNPE", category="available",
            plan={"RN": ("SS",), "MN": ("SS",)},
        ),
        FleetSystem(
            DeviceModel("smartphone-soc-b", ProcessorType.DSP, peak_gops=22,
                        base_utilization=0.6, saturation_gops=2,
                        overhead=2e-3, max_batch=4,
                        structure_efficiency=_eff(0.9, 0.6, 0.5),
                        idle_watts=0.2, peak_watts=1.0),
            framework="SNPE", category="available",
            plan={"RN": ("SS",), "MN": ("SS",)},
        ),
        FleetSystem(
            DeviceModel("camera-soc", ProcessorType.DSP, peak_gops=12,
                        base_utilization=0.6, saturation_gops=2,
                        overhead=2e-3, max_batch=2,
                        structure_efficiency=_eff(0.9, 0.6, 0.5),
                        idle_watts=0.15, peak_watts=0.7),
            framework="SNPE", category="rdo",
            plan={"MN": ("SS",)},
        ),
        FleetSystem(
            DeviceModel("mobile-gpu", ProcessorType.GPU, peak_gops=80,
                        base_utilization=0.5, saturation_gops=5,
                        overhead=2e-3, max_batch=8,
                        structure_efficiency=_eff(0.95, 0.55, 0.4),
                        idle_watts=0.8, peak_watts=3.5),
            framework="ArmNN", category="available",
            plan={"RN": ("SS", "O"), "MN": ("SS",)},
        ),
        FleetSystem(
            DeviceModel("dev-board-gpu", ProcessorType.GPU, peak_gops=150,
                        base_utilization=0.4, saturation_gops=8,
                        overhead=1.5e-3, max_batch=8,
                        structure_efficiency=_eff(0.95, 0.55, 0.4),
                        idle_watts=2, peak_watts=9),
            framework="ArmNN", category="available",
            plan={"RN": ("SS",), "MN": ("SS",), "SM": ("SS",)},
        ),
        FleetSystem(
            DeviceModel("mobile-cpu", ProcessorType.CPU, peak_gops=20,
                        base_utilization=0.8, saturation_gops=2,
                        overhead=0.5e-3, max_batch=4,
                        structure_efficiency=_eff(1.0, 0.8, 0.8),
                        idle_watts=0.4, peak_watts=2.0),
            framework="TensorFlow Lite", category="available",
            plan={"RN": ("SS",), "MN": ("SS", "O"), "SM": ("SS",)},
        ),
        FleetSystem(
            DeviceModel("tablet-cpu", ProcessorType.CPU, peak_gops=15,
                        base_utilization=0.8, saturation_gops=2,
                        overhead=0.5e-3, max_batch=4,
                        structure_efficiency=_eff(1.0, 0.8, 0.8),
                        idle_watts=0.35, peak_watts=1.6),
            framework="TensorFlow Lite", category="available",
            plan={"MN": ("SS",)},
        ),
        # ---- edge accelerators ------------------------------------------------
        FleetSystem(
            DeviceModel("edge-asic-hailo", ProcessorType.ASIC, peak_gops=400,
                        base_utilization=0.4, saturation_gops=10,
                        overhead=0.8e-3, max_batch=8,
                        structure_efficiency=_eff(1.0, 0.55, 0.3),
                        idle_watts=1.0, peak_watts=4.5),
            framework="Hailo SDK", category="preview",
            plan={"RN": ("MS",), "MN": ("SS", "MS", "O"), "SM": ("SS", "O")},
        ),
        FleetSystem(
            DeviceModel("edge-npu", ProcessorType.ASIC, peak_gops=100,
                        base_utilization=0.5, saturation_gops=5,
                        overhead=1e-3, max_batch=4,
                        structure_efficiency=_eff(1.0, 0.6, 0.4),
                        idle_watts=0.5, peak_watts=2.2),
            framework="TensorFlow", category="rdo",
            plan={"RN": ("SS",), "MN": ("SS", "MS", "O")},
        ),
        FleetSystem(
            DeviceModel("embedded-asic", ProcessorType.ASIC, peak_gops=50,
                        base_utilization=0.5, saturation_gops=3,
                        overhead=1e-3, max_batch=4,
                        structure_efficiency=_eff(1.0, 0.6, 0.4),
                        idle_watts=0.3, peak_watts=1.3),
            framework="TensorFlow", category="rdo",
            plan={"MN": ("SS", "O"), "SM": ("SS", "O")},
        ),
        FleetSystem(
            DeviceModel("iot-cpu", ProcessorType.CPU, peak_gops=6,
                        base_utilization=0.85, saturation_gops=1,
                        overhead=0.5e-3, max_batch=2,
                        structure_efficiency=_eff(1.0, 0.8, 0.8),
                        idle_watts=0.1, peak_watts=0.4),
            framework="TensorFlow Lite", category="rdo",
            plan={"RN": ("SS",), "MN": ("SS",)},
        ),
    ]


def framework_matrix(systems: Sequence[FleetSystem]
                     ) -> Dict[str, frozenset]:
    """Framework -> set of processor types (the Table VII matrix)."""
    out: Dict[str, set] = {}
    for system in systems:
        out.setdefault(system.framework, set()).add(system.device.processor)
    return {framework: frozenset(procs) for framework, procs in out.items()}


#: Table VI of the paper: released closed-division results.
TABLE_VI = {
    Task.MACHINE_TRANSLATION: {
        Scenario.SINGLE_STREAM: 2, Scenario.MULTI_STREAM: 0,
        Scenario.SERVER: 6, Scenario.OFFLINE: 11,
    },
    Task.IMAGE_CLASSIFICATION_LIGHT: {
        Scenario.SINGLE_STREAM: 18, Scenario.MULTI_STREAM: 3,
        Scenario.SERVER: 5, Scenario.OFFLINE: 11,
    },
    Task.IMAGE_CLASSIFICATION_HEAVY: {
        Scenario.SINGLE_STREAM: 19, Scenario.MULTI_STREAM: 5,
        Scenario.SERVER: 10, Scenario.OFFLINE: 20,
    },
    Task.OBJECT_DETECTION_LIGHT: {
        Scenario.SINGLE_STREAM: 8, Scenario.MULTI_STREAM: 3,
        Scenario.SERVER: 5, Scenario.OFFLINE: 13,
    },
    Task.OBJECT_DETECTION_HEAVY: {
        Scenario.SINGLE_STREAM: 4, Scenario.MULTI_STREAM: 4,
        Scenario.SERVER: 7, Scenario.OFFLINE: 12,
    },
}

#: Figure 5 of the paper: closed-division results per model.
FIGURE_5 = {
    Task.IMAGE_CLASSIFICATION_HEAVY: 54,
    Task.IMAGE_CLASSIFICATION_LIGHT: 37,
    Task.OBJECT_DETECTION_LIGHT: 29,
    Task.OBJECT_DETECTION_HEAVY: 27,
    Task.MACHINE_TRANSLATION: 19,
}

#: Table VII of the paper: framework -> processor types.
TABLE_VII = {
    "ArmNN": frozenset({ProcessorType.CPU, ProcessorType.GPU}),
    "FuriosaAI": frozenset({ProcessorType.FPGA}),
    "Hailo SDK": frozenset({ProcessorType.ASIC}),
    "HanGuang AI": frozenset({ProcessorType.ASIC}),
    "ONNX": frozenset({ProcessorType.CPU}),
    "OpenVINO": frozenset({ProcessorType.CPU}),
    "PyTorch": frozenset({ProcessorType.CPU}),
    "SNPE": frozenset({ProcessorType.DSP}),
    "Synapse": frozenset({ProcessorType.ASIC}),
    "TensorFlow": frozenset({ProcessorType.ASIC, ProcessorType.CPU,
                             ProcessorType.GPU}),
    "TensorFlow Lite": frozenset({ProcessorType.CPU}),
    "TensorRT": frozenset({ProcessorType.GPU}),
}
