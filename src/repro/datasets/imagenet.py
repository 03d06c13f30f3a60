"""SyntheticImageNet: the offline stand-in for ImageNet 2012.

Each sample is a single-channel image containing exactly one class
glyph at a random position over additive background noise; the label is
the glyph's class.  Difficulty is controlled by the noise level, so the
runnable classifiers achieve high-but-imperfect Top-1 accuracy - enough
headroom for quantization experiments to show measurable degradation,
as in the paper's Section III-B.

Samples are generated lazily and deterministically from ``(seed,
index)``, so a 50,000-image data set costs no memory until touched, and
any index is reproducible in isolation.
"""

from __future__ import annotations


import numpy as np

from ..bounds import AT_LEAST_ONE, check_range
from .base import Dataset
from .glyphs import make_glyph_bank, place_glyph


class SyntheticImageNet(Dataset):
    """Single-label glyph classification data set."""

    def __init__(
        self,
        size: int = 2_000,
        image_size: int = 32,
        num_classes: int = 16,
        glyph_size: int = 8,
        noise_level: float = 0.35,
        calibration_count: int = 64,
        seed: int = 2012,
    ) -> None:
        check_range("size", size, AT_LEAST_ONE)
        if glyph_size >= image_size:
            raise ValueError("glyph must be smaller than the image")
        self.name = "synthetic-imagenet"
        self._size = size
        self.image_size = image_size
        self.num_classes = num_classes
        self.glyph_size = glyph_size
        self.noise_level = noise_level
        self.calibration_count = calibration_count
        self._seed = seed
        self.glyphs = make_glyph_bank(num_classes, glyph_size, seed)

    def __len__(self) -> int:
        return self._size

    def _rng_for(self, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self._seed, index))
        )

    def get_label(self, index: int) -> int:
        self._check_index(index)
        rng = self._rng_for(index)
        return int(rng.integers(0, self.num_classes))

    def get_sample(self, index: int) -> np.ndarray:
        """Return an ``(image_size, image_size, 1)`` float32 image."""
        self._check_index(index)
        rng = self._rng_for(index)
        label = int(rng.integers(0, self.num_classes))
        image = rng.normal(
            0.0, self.noise_level, size=(self.image_size, self.image_size)
        ).astype(np.float32)
        limit = self.image_size - self.glyph_size
        top = int(rng.integers(0, limit + 1))
        left = int(rng.integers(0, limit + 1))
        place_glyph(image, self.glyphs[label], top, left)
        return image[:, :, None]
