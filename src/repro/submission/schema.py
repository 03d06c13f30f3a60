"""Submission data model (paper Section V-A).

A result submission bundles the system under test's description, the
division and category, and per-(task, scenario) results: the performance
run's summary and the accuracy run's quality.  All of it would be
uploaded to a public repository for peer review; here it is a plain data
model consumed by the submission checker and the review pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, check_range
from ..core.config import Scenario, Task
from ..core.loadgen import LoadGenResult
from ..accuracy.checker import AccuracyReport
from ..models.quantization import NumericFormat


class Division(enum.Enum):
    """Closed: strict comparability.  Open: innovation, documented."""

    CLOSED = "closed"
    OPEN = "open"


class Category(enum.Enum):
    """Hardware/software availability (Section V-A)."""

    AVAILABLE = "available"
    PREVIEW = "preview"
    RDO = "research_development_other"


#: Formats approved for closed-division quantization (Section IV-A).
APPROVED_NUMERICS = frozenset({
    NumericFormat.INT4, NumericFormat.INT8, NumericFormat.INT16,
    NumericFormat.UINT8, NumericFormat.UINT16, NumericFormat.FP11,
    NumericFormat.FP16, NumericFormat.BF16, NumericFormat.FP32,
})


@dataclass(frozen=True)
class SystemDescription:
    """The system-description file highlighting the SUT's configuration."""

    name: str
    submitter: str
    processor: str
    accelerator_count: int
    host_cpu_count: int
    software_stack: str
    memory_gb: float
    numerics: Tuple[NumericFormat, ...] = (NumericFormat.FP32,)

    def __post_init__(self) -> None:
        check_range("accelerator_count", self.accelerator_count, NON_NEGATIVE)
        check_range("host_cpu_count", self.host_cpu_count, AT_LEAST_ONE)
        if not self.numerics:
            raise ValueError("at least one numeric format must be registered")


@dataclass
class BenchmarkResult:
    """One (task, scenario) entry within a submission."""

    task: Task
    scenario: Scenario
    performance: LoadGenResult
    accuracy: AccuracyReport
    #: Whether the model was retrained (prohibited in closed division).
    retrained: bool = False
    #: Whether query/intermediate caching was used (always prohibited).
    caching_enabled: bool = False


@dataclass
class Submission:
    """A full submission: system + division/category + results."""

    system: SystemDescription
    division: Division
    category: Category
    results: List[BenchmarkResult] = field(default_factory=list)
    #: Open-division submissions must document their deviations.
    open_deviations: Optional[str] = None
