"""Metric families and the registry that owns them.

A *family* is one named metric plus its label dimensions
(``loadgen_queries_issued_total{scenario="server"}``); each distinct
label-value combination materializes one primitive child on first use.
A :class:`MetricsRegistry` owns a namespace of families: registration
is idempotent (asking for an existing name returns the existing family)
but re-registering a name with a different type or label set is a
programming error and raises.

Most counters are not written at all.  A layer counts an event once,
in its own ledger (a ``*Stats`` field, the query log), and registers a
**callback** counter that reads it - ``registry.counter(name, help,
fn=...)``, or ``family.labels_fn(fn, **labels)`` for one labeled series;
:mod:`repro.metrics.ledger` does it for a whole ``*Stats`` dataclass.
The event then costs the registry nothing, and a callback registered
for a series that already has one takes it over, so the series follows
its current owner.

What a ledger cannot hold is written at the event - a histogram
observation, or a counter broken down by a label value known only then
- and there the pattern is to resolve the child **once**::

    latency = registry.histogram(
        "loadgen_query_latency_seconds", "Issue-to-completion latency",
        labels=("scenario",),
    ).labels(scenario="server")
    ...
    latency.observe(now - issued)   # per-query cost: one method call

so the per-event cost is a single unlocked update, never a dictionary
lookup or string formatting.
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
                 label_names: Sequence[str] = (),
                 fn: Optional[Callable[[], float]] = None) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(label_names)) != len(label_names):
            raise ValueError(f"duplicate label names in {label_names!r}")
        if fn is not None and label_names:
            raise ValueError(
                "a labeled family cannot take a family-wide callback; "
                "bind one callback per labeled child via labels_fn(...)"
            )
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        #: The callback behind a label-free callback family's one child.
        self._fn = fn
        self._children: Dict[Tuple[str, ...], object] = {}
        #: ``(series key, child)`` per child, in creation order: each
        #: key is built once, when its child is, and this is what
        #: :func:`~repro.metrics.snapshot.capture` walks.  Read-only.
        self.keyed: List[Tuple[str, object]] = []

    def _make_child(self, fn: Optional[Callable[[], float]] = None):
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
            child = self._adopt(values, self._make_child(self._fn))
        return child

    def labels_fn(self, fn: Callable[[], float], **labels: object):
        """Bind a callback-backed counter or gauge child for these labels.

        Labeled families cannot carry a single family-wide callback (each
        series needs its own live state to pull from), so per-series
        callbacks are bound here instead: one call per label combination,
        e.g. ``prefix_cache_resident_tokens{replica="3"}`` pulling from
        replica 3's cache.  Binding a label set that already has a
        callback child hands that child the newer callback - the series
        follows its current owner (a fleet builds fresh caches every
        run); rebinding over a write-style child is an error.
        """
        values = self._label_values(labels)
        child = self._children.get(values)
        if child is None:
            return self._adopt(values, self._make_child(fn))
        if child._fn is None:
            raise ValueError(
                f"series {self._series_key(values)!r} already exists as a "
                f"write-style {self.kind}; cannot rebind it to a callback"
            )
        child._fn = fn
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

    def _make_child(self, fn=None) -> Counter:
        return Counter(fn=fn)

    # Label-free convenience: the family acts as its single child.
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _make_child(self, fn=None) -> Gauge:
        return Gauge(fn=fn)

    def set(self, value: float) -> None:
        self._default().set(value)

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

    def _make_child(self, fn=None) -> Histogram:
        if fn is not None:
            raise ValueError(
                f"histogram {self.name!r} cannot be callback-backed")
        return Histogram(base=self.base, growth=self.growth,
                         buckets=self.buckets)


class MetricsRegistry:
    """A namespace of metric families, the unit of export and snapshot.

    One registry per observed entity: a LoadGen run, an
    ``InferenceServer``, a benchmark harness.  Registries are cheap -
    there is no global default, so two concurrent runs can never bleed
    series into each other.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

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

    def _scalar(self, family: MetricFamily):
        """Register a counter or gauge family.  A callback handed to a
        name that already has one goes to the existing child: the series
        follows its newest owner (this run's log, not the last run's)."""
        registered = self._register(family)
        if family._fn is not None and registered is not family:
            registered.labels_fn(family._fn)
        return registered

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = (),
                fn: Optional[Callable[[], float]] = None) -> CounterFamily:
        """Register (or fetch) a counter family.

        With ``fn`` the counter is callback-backed: its value is read
        from ``fn()`` at collection time - the count some ledger already
        keeps - and writes are rejected.
        """
        return self._scalar(
            CounterFamily(name, help, labels, fn=fn))

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (),
              fn: Optional[Callable[[], float]] = None) -> GaugeFamily:
        """Register (or fetch) a gauge family.

        With ``fn`` the gauge is callback-backed: its value is pulled
        from ``fn()`` at collection time and writes are rejected.
        """
        return self._scalar(
            GaugeFamily(name, help, labels, fn=fn))

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  base: float = DEFAULT_BASE,
                  growth: float = DEFAULT_GROWTH,
                  buckets: int = DEFAULT_BUCKETS) -> HistogramFamily:
        """Register (or fetch) a histogram family."""
        family = self._register(HistogramFamily(
            name, help, labels,
            base=base, growth=growth, buckets=buckets))
        assert isinstance(family, HistogramFamily)
        return family

    def subset(self, names: Sequence[str]) -> "MetricsRegistry":
        """A registry of the named families only: the same objects, so
        a series bound through it shows in this registry.  A factory
        that builds instrumented layers while a run starts keeps this,
        not the registry, whose views may read what holds the factory
        (``CONTRIBUTING.md``: views and factories point one way)."""
        part = MetricsRegistry()
        part._families = {name: self._families[name] for name in names}
        return part

    def collect(self) -> List[MetricFamily]:
        """All families, sorted by name (the export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def get(self, name: str) -> Optional[MetricFamily]:
        """Fetch a family by name, or ``None``."""
        return self._families.get(name)
