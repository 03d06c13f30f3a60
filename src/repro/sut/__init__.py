"""System-under-test implementations: device models, simulators, backends."""

from .backend import (
    ClassifierSUT,
    DetectorSUT,
    PreprocessingModel,
    TranslatorSUT,
)
from .device import ComputeMotif, DeviceModel, ProcessorType
from .echo import EchoSUT
from .fleet import (
    FIGURE_5,
    TABLE_VI,
    TABLE_VII,
    FleetSystem,
    build_fleet,
    framework_matrix,
    task_workload,
)
from .simulated import SimulatedSUT, WorkloadProfile

__all__ = [
    "ClassifierSUT",
    "ComputeMotif",
    "DetectorSUT",
    "DeviceModel",
    "EchoSUT",
    "PreprocessingModel",
    "FIGURE_5",
    "FleetSystem",
    "ProcessorType",
    "SimulatedSUT",
    "TABLE_VI",
    "TABLE_VII",
    "TranslatorSUT",
    "WorkloadProfile",
    "build_fleet",
    "framework_matrix",
    "task_workload",
]
