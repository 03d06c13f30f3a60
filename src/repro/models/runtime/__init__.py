"""Runnable (tiny) instantiations of the reference models."""

from .classifier import GlyphClassifier, build_glyph_classifier, evaluate_classifier
from .detector import GlyphDetector, build_glyph_detector, evaluate_detector
from .translator import CipherTranslator, build_cipher_translator, evaluate_translator

__all__ = [
    "CipherTranslator",
    "GlyphClassifier",
    "GlyphDetector",
    "build_cipher_translator",
    "build_glyph_classifier",
    "build_glyph_detector",
    "evaluate_classifier",
    "evaluate_detector",
    "evaluate_translator",
]
