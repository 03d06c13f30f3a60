"""Metric families and the registry that owns them.

A *family* is one named metric plus its label dimensions
(``loadgen_queries_issued_total{scenario="server"}``); each distinct
label-value combination materializes one primitive child on first use.
A :class:`MetricsRegistry` owns a namespace of families: registration
is idempotent (asking for an existing name returns the existing family)
but re-registering a name with a different type or label set is a
programming error and raises.

The intended pattern for hot paths is to resolve the child **once**::

    issued = registry.counter(
        "loadgen_queries_issued_total", "Queries issued by the LoadGen",
        labels=("scenario",),
    ).labels(scenario="server")
    ...
    issued.inc()          # per-query cost: one attribute add

so the per-event cost is a single unlocked attribute update, never a
dictionary lookup or string formatting.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .primitives import (
    DEFAULT_BASE,
    DEFAULT_BUCKETS,
    DEFAULT_GROWTH,
    Counter,
    Gauge,
    Histogram,
)

__all__ = [
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricFamily",
    "MetricsRegistry",
    "series_key",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


#: The exposition format's label-value escapes: without them a value
#: holding a quote, a backslash or a newline yields a line no scraper
#: can parse and a snapshot key that no longer splits.
_LABEL_ESCAPES = str.maketrans({"\\": r"\\", '"': r'\"', "\n": r"\n"})


def series_key(name: str, labels: Dict[str, str]) -> str:
    r"""Canonical ``name{label="value",...}`` key for one series.

    Label order follows the family's declared label names, so the key is
    stable across runs - snapshot equality tests depend on that.  Values
    are escaped as the Prometheus exposition format requires: a
    backslash, a double quote and a newline become ``\\``, ``\"`` and
    ``\n``.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{str(v).translate(_LABEL_ESCAPES)}"' for k, v in labels.items())
    return f"{name}{{{inner}}}"


class MetricFamily:
    """One named metric and its labeled children (base class)."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(label_names)) != len(label_names):
            raise ValueError(f"duplicate label names in {label_names!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._children: Dict[Tuple[str, ...], object] = {}
        #: ``(series key, child)`` per child, in creation order: each
        #: key is built once, when its child is, and this is what
        #: :func:`~repro.metrics.snapshot.capture` walks.  Read-only.
        self.keyed: List[Tuple[str, object]] = []

    def _make_child(self) -> object:
        raise NotImplementedError

    def _label_values(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _series_key(self, values: Tuple[str, ...]) -> str:
        return series_key(self.name, dict(zip(self.label_names, values)))

    def _adopt(self, values: Tuple[str, ...], child):
        """Store a new child under its label values and its series key."""
        self._children[values] = child
        self.keyed.append((self._series_key(values), child))
        return child

    def labels(self, **labels: object):
        """Return (creating on first use) the child for these labels."""
        values = self._label_values(labels)
        child = self._children.get(values)
        if child is None:
            child = self._adopt(values, self._make_child())
        return child

    def series(self) -> Iterator[Tuple[Dict[str, str], object]]:
        """Iterate ``(label dict, child)`` in insertion order."""
        for key, child in self._children.items():
            yield dict(zip(self.label_names, key)), child

    def _default(self):
        """The single unlabeled child (valid only when label-free)."""
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "use .labels(...)"
            )
        return self.labels()


class CounterFamily(MetricFamily):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    # Label-free convenience: the family acts as its single child.
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = (),
                 fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, help, label_names)
        self._fn = fn
        if fn is not None and label_names:
            raise ValueError(
                "callback gauges cannot take a family-wide callback; "
                "bind one callback per labeled child via labels_fn(...)"
            )

    def _make_child(self) -> Gauge:
        return Gauge(fn=self._fn)

    def labels_fn(self, fn: Callable[[], float], **labels: object) -> Gauge:
        """Bind a callback-backed child for these labels.

        Labeled families cannot carry a single family-wide callback (each
        series needs its own live state to pull from), so per-series
        callbacks are bound here instead: one call per label combination,
        e.g. ``prefix_cache_resident_tokens{replica="3"}`` pulling from
        replica 3's cache.  Binding the same label set twice returns the
        existing child; rebinding over a write-style child is an error.
        """
        values = self._label_values(labels)
        child = self._children.get(values)
        if child is None:
            child = self._adopt(values, Gauge(fn=fn))
        elif child._fn is None:
            raise ValueError(
                f"series {self._series_key(values)!r} "
                "already exists as a write-style gauge; cannot rebind it "
                "to a callback"
            )
        return child

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return self._default().value


class HistogramFamily(MetricFamily):
    kind = "histogram"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = (),
                 base: float = DEFAULT_BASE,
                 growth: float = DEFAULT_GROWTH,
                 buckets: int = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, label_names)
        self.base = base
        self.growth = growth
        self.buckets = buckets

    def _make_child(self) -> Histogram:
        return Histogram(base=self.base, growth=self.growth,
                         buckets=self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def percentile(self, q: float) -> float:
        return self._default().percentile(q)

    @property
    def count(self) -> int:
        return self._default().count


class MetricsRegistry:
    """A namespace of metric families, the unit of export and snapshot.

    One registry per observed entity: a LoadGen run, an
    ``InferenceServer``, a benchmark harness.  Registries are cheap -
    there is no global default, so two concurrent runs can never bleed
    series into each other.
    """

    def __init__(self, namespace: str = "") -> None:
        if namespace and not _NAME_RE.match(namespace):
            raise ValueError(f"invalid namespace {namespace!r}")
        self.namespace = namespace
        self._families: Dict[str, MetricFamily] = {}

    def _full_name(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _register(self, family: MetricFamily) -> MetricFamily:
        existing = self._families.get(family.name)
        if existing is not None:
            if (type(existing) is not type(family)
                    or existing.label_names != family.label_names):
                raise ValueError(
                    f"metric {family.name!r} already registered as "
                    f"{existing.kind}{existing.label_names}; cannot "
                    f"re-register as {family.kind}{family.label_names}"
                )
            return existing
        self._families[family.name] = family
        if not family.label_names:
            # Materialize the single child now so zero-valued and
            # callback-backed series show up in exports immediately.
            family.labels()
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> CounterFamily:
        """Register (or fetch) a counter family."""
        family = self._register(
            CounterFamily(self._full_name(name), help, labels))
        assert isinstance(family, CounterFamily)
        return family

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (),
              fn: Optional[Callable[[], float]] = None) -> GaugeFamily:
        """Register (or fetch) a gauge family.

        With ``fn`` the gauge is callback-backed: its value is pulled
        from ``fn()`` at collection time and writes are rejected.
        """
        family = self._register(
            GaugeFamily(self._full_name(name), help, labels, fn=fn))
        assert isinstance(family, GaugeFamily)
        return family

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  base: float = DEFAULT_BASE,
                  growth: float = DEFAULT_GROWTH,
                  buckets: int = DEFAULT_BUCKETS) -> HistogramFamily:
        """Register (or fetch) a histogram family."""
        family = self._register(HistogramFamily(
            self._full_name(name), help, labels,
            base=base, growth=growth, buckets=buckets))
        assert isinstance(family, HistogramFamily)
        return family

    def collect(self) -> List[MetricFamily]:
        """All families, sorted by name (the export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def get(self, name: str) -> Optional[MetricFamily]:
        """Fetch a family by (full) name, or ``None``."""
        return self._families.get(name)
