"""Ledger fields that are also exported counters.

Every layer already counts what it does in a ``*Stats`` dataclass - its
ledger - because the run's own reports read it.  A field declared with
:func:`exported` carries the metric name and help text it is published
under, and :func:`export_ledger` registers one callback counter per such
field, so the registry *reads* the ledger at collection time and the
event is counted in exactly one place::

    @dataclass
    class ResilienceStats:
        retries: int = exported(
            "resilient_retries_total",
            "Attempts re-issued after a lost or malformed attempt")

    export_ledger(registry, lambda: self.stats)

``docs/observability.md`` ("Ledgers and views") has the rule for what
still goes to the registry by hand.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Callable, List, Tuple

from .registry import MetricsRegistry

__all__ = ["export_ledger", "exported", "exported_counters"]

_KEY = "exported"


def exported(name: str, help: str):
    """A dataclass counter field (an int from 0) published as ``name``."""
    return field(default=0, metadata={_KEY: (name, help)})


def exported_counters(ledger) -> List[Tuple[str, str, str]]:
    """``(field, metric name, help)`` of each :func:`exported` field of
    the ledger class (or instance) ``ledger``."""
    return [(spec.name, *spec.metadata[_KEY])
            for spec in fields(ledger) if _KEY in spec.metadata]


def export_ledger(registry: MetricsRegistry, read: Callable[[], object],
                  **labels: object) -> None:
    """Publish every :func:`exported` field of the ledger ``read()``
    returns as a callback counter, under ``labels`` if any are given.

    ``read`` is called again at every collection, so a layer whose
    ``start_run`` replaces its stats object exports the current one.
    """
    names = tuple(labels)
    for attr, name, help in exported_counters(read()):

        def value(attr=attr):
            return getattr(read(), attr)

        if names:
            registry.counter(name, help, labels=names).labels_fn(
                value, **labels)
        else:
            registry.counter(name, help, fn=value)
