"""SUTs that execute the runnable numpy models.

These backends drive real forward passes (template classifier, SSD
detector, cipher translator) under the LoadGen.  Timing policy: the
backend measures the wall-clock duration of each dispatch and replays it
as the virtual-time service time, so a run's latency statistics reflect
the actual numpy execution while the surrounding scenario machinery
stays deterministic-fast.  A ``service_time_fn`` override substitutes a
deterministic latency model - used by tests that must not depend on
host speed.

Preprocessing is untimed in MLPerf v0.5 (Section IV-A: "we explicitly
allow untimed preprocessing"), but the paper lists "timing
preprocessing" among the planned metric improvements; the optional
:class:`PreprocessingModel` implements both policies so the ablation in
``benchmarks/test_ext_timed_preprocessing.py`` can quantify the
difference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..bounds import NON_NEGATIVE, check_range
from ..core.query import Query, new_response, sample_id_of
from ..core.sut import SutBase
from ..datasets.qsl import DatasetQSL
from ..models.runtime.classifier import GlyphClassifier
from ..models.runtime.detector import GlyphDetector
from ..models.runtime.translator import CipherTranslator

#: Maps a batch size to a deterministic service time in seconds.
ServiceTimeFn = Callable[[int], float]


@dataclass(frozen=True)
class PreprocessingModel:
    """Input-preparation cost (resize, layout conversion, tokenization).

    ``timed=False`` is the v0.5 rule: preprocessing happens but never
    counts toward latency.  ``timed=True`` is the paper's proposed
    whole-pipeline metric.
    """

    seconds_per_sample: float
    timed: bool = False

    def __post_init__(self) -> None:
        check_range("seconds_per_sample",
                    self.seconds_per_sample, NON_NEGATIVE)


class _ModelSUT(SutBase):
    """Shared machinery: fetch samples, predict, time, complete."""

    def __init__(self, qsl: DatasetQSL, name: str,
                 service_time_fn: Optional[ServiceTimeFn] = None,
                 preprocessing: Optional[PreprocessingModel] = None) -> None:
        super().__init__(name)
        self.qsl = qsl
        self.service_time_fn = service_time_fn
        self.preprocessing = preprocessing
        #: Wall-clock seconds spent inside model execution.
        self.compute_seconds = 0.0
        #: Modeled preprocessing seconds, split by timing policy.
        self.timed_preprocess_seconds = 0.0
        self.untimed_preprocess_seconds = 0.0

    def _predict(self, samples: List[object]) -> List[object]:
        raise NotImplementedError

    def _preprocess_duration(self, sample_count: int) -> float:
        if self.preprocessing is None:
            return 0.0
        cost = self.preprocessing.seconds_per_sample * sample_count
        if self.preprocessing.timed:
            self.timed_preprocess_seconds += cost
            return cost
        self.untimed_preprocess_seconds += cost
        return 0.0

    def issue_query(self, query: Query) -> None:
        samples = [self.qsl.get_sample(s.index) for s in query.samples]
        started = time.perf_counter()
        outputs = self._predict(samples)
        elapsed = time.perf_counter() - started
        self.compute_seconds += elapsed
        if self.service_time_fn is not None:
            duration = self.service_time_fn(query.sample_count)
        else:
            duration = elapsed
        duration += self._preprocess_duration(query.sample_count)
        if len(outputs) != len(query.samples):
            # A backend that mis-sizes its output batch is a recorded
            # query failure (the run goes INVALID), not an exception
            # that kills the event loop.
            reason = (
                f"{self.name} produced {len(outputs)} outputs for "
                f"{len(query.samples)} samples"
            )
            self.loop.schedule_after(
                duration, lambda: self.fail(query, reason)
            )
            return
        responses = list(map(new_response, zip(
            map(sample_id_of, query.samples), outputs)))
        self.loop.schedule_after(
            duration, lambda: self.complete(query, responses)
        )


#: Samples per forward pass; a larger query runs in chunks of this size.
_CLASSIFIER_BATCH = 64
_DETECTOR_BATCH = 16


class ClassifierSUT(_ModelSUT):
    """Runs a :class:`GlyphClassifier`; responses are label ints."""

    def __init__(self, model: GlyphClassifier, qsl: DatasetQSL,
                 service_time_fn: Optional[ServiceTimeFn] = None,
                 preprocessing: Optional[PreprocessingModel] = None) -> None:
        super().__init__(qsl, f"{model.name}-sut", service_time_fn,
                         preprocessing)
        self.model = model

    def _predict(self, samples: List[object]) -> List[object]:
        outputs: List[int] = []
        for start in range(0, len(samples), _CLASSIFIER_BATCH):
            batch = np.stack(samples[start:start + _CLASSIFIER_BATCH])
            outputs.extend(int(p) for p in self.model.predict(batch))
        return outputs


class DetectorSUT(_ModelSUT):
    """Runs a :class:`GlyphDetector`; responses are Detection lists."""

    def __init__(self, model: GlyphDetector, qsl: DatasetQSL,
                 service_time_fn: Optional[ServiceTimeFn] = None) -> None:
        super().__init__(qsl, f"{model.name}-sut", service_time_fn)
        self.model = model

    def _predict(self, samples: List[object]) -> List[object]:
        outputs: List[object] = []
        for start in range(0, len(samples), _DETECTOR_BATCH):
            batch = np.stack(samples[start:start + _DETECTOR_BATCH])
            outputs.extend(self.model.predict(batch))
        return outputs


class TranslatorSUT(_ModelSUT):
    """Runs a :class:`CipherTranslator`; responses are token-id lists."""

    def __init__(self, model: CipherTranslator, qsl: DatasetQSL,
                 service_time_fn: Optional[ServiceTimeFn] = None) -> None:
        super().__init__(qsl, f"{model.name}-sut", service_time_fn)
        self.model = model

    def _predict(self, samples: List[object]) -> List[object]:
        return [self.model.translate(source) for source in samples]
