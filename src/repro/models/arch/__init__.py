"""Full-size architecture definitions reproducing Table I."""

from ..._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "gnmt": ("GNMTArch", "build_gnmt"),
    "mobilenet": ("build_mobilenet_v1", "mobilenet_v1"),
    "mobilenet_v2": ("build_mobilenet_v2", "mobilenet_v2"),
    "resnet": ("build_resnet", "resnet50_v15"),
    "ssd": ("SSDArch", "build_ssd_mobilenet_v1", "build_ssd_resnet34"),
})
