"""QuerySampleLibrary adapter over a :class:`~repro.datasets.base.Dataset`.

The QSL enforces the Fig. 3 contract: samples must be loaded (untimed)
before the LoadGen may reference them in queries, and are unloaded at
the end of the run.  Violations raise immediately, which the integration
tests use to prove the LoadGen honours the protocol.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from .base import Dataset


class DatasetQSL:
    """Strict QuerySampleLibrary over a data set."""

    def __init__(self, dataset: Dataset,
                 performance_sample_count: int = None) -> None:
        self.dataset = dataset
        self._loaded: Set[int] = set()
        self._performance_sample_count = (
            performance_sample_count
            if performance_sample_count is not None
            else dataset.performance_sample_count
        )
        #: Load/unload call trace, for the message-flow integration test.
        self.events: List[str] = []

    @property
    def name(self) -> str:
        return self.dataset.name

    @property
    def total_sample_count(self) -> int:
        return len(self.dataset)

    @property
    def performance_sample_count(self) -> int:
        return self._performance_sample_count

    def load_samples(self, indices: Sequence[int]) -> None:
        for index in indices:
            self.dataset._check_index(index)
        self._loaded.update(int(i) for i in indices)
        self.events.append(f"load:{len(indices)}")

    def unload_samples(self, indices: Sequence[int]) -> None:
        for index in indices:
            self._loaded.discard(int(index))
        self.events.append(f"unload:{len(indices)}")

    def get_sample(self, index: int) -> object:
        if index not in self._loaded:
            raise RuntimeError(
                f"sample {index} referenced before load_samples "
                "(LoadGen/SUT protocol violation)"
            )
        return self.dataset.get_sample(index)
