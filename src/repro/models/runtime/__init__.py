"""Runnable (tiny) instantiations of the reference models."""

from ..._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "classifier": (
        "GlyphClassifier", "build_glyph_classifier", "evaluate_classifier",
    ),
    "detector": ("GlyphDetector", "build_glyph_detector", "evaluate_detector"),
    "translator": (
        "CipherTranslator", "build_cipher_translator", "evaluate_translator",
    ),
})
