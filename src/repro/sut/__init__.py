"""System-under-test implementations: device models, simulators, backends."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "backend": (
        "ClassifierSUT", "DetectorSUT", "PreprocessingModel", "TranslatorSUT",
    ),
    "device": ("ComputeMotif", "DeviceModel", "ProcessorType"),
    "echo": ("EchoSUT",),
    "fleet": (
        "FIGURE_5", "TABLE_VI", "TABLE_VII", "FleetSystem", "build_fleet",
        "framework_matrix", "task_workload",
    ),
    "simulated": ("SimulatedSUT", "WorkloadProfile"),
})
