"""The Section V-B validation suite used during result review."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "accuracy_verification": (
        "AccuracyVerificationReport", "run_accuracy_verification",
    ),
    "caching": ("CachingDetectionReport", "run_caching_detection"),
    "custom_dataset": ("CustomDatasetReport", "run_custom_dataset_test"),
    "seeds": ("SeedTestReport", "run_seed_test"),
})
