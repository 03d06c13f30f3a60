"""Render a registry as Prometheus text, JSON, or a terminal view.

Three consumers, three formats:

* :func:`to_prometheus_text` - the exposition format scrapers expect:
  ``# HELP`` / ``# TYPE`` headers, one line per series, histograms as
  cumulative ``_bucket{le="..."}`` series plus ``_sum`` / ``_count``.
  Buckets are emitted *sparsely* (only boundaries that hold data, plus
  ``+Inf``): cumulative counts stay correct, and a 512-bucket histogram
  does not print 512 lines of zeros.
* :func:`to_json` - a structured dump (families, labels, bucket
  arrays, quantiles) for programmatic post-processing.
* :func:`render_table` - the ``repro metrics`` CLI view: counters and
  gauges in a table, each histogram as count/mean/p50/p90/p99/p999 with
  an ASCII bar sketch of its distribution.

All three read the registry at call time; pair them with
:class:`~repro.metrics.snapshot.SnapshotSampler` when a time series
rather than a final state is wanted.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Tuple

from .primitives import Histogram
from .registry import MetricsRegistry, series_key
from .snapshot import DEFAULT_QUANTILES

__all__ = ["to_prometheus_text", "to_json", "render_table",
           "render_histogram"]

#: Bar alphabet for the terminal histogram sketch, thin to full.
_BARS = " .:-=+*#%@"
#: Columns of a histogram's distribution sketch.
SKETCH_WIDTH = 40
#: The quantiles a histogram reports, the ones every snapshot captures.
_SUFFIXES, _QS = zip(*DEFAULT_QUANTILES)


def _fmt(value: float) -> str:
    """Prometheus-style number: integral floats lose the ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Serialize ``registry`` in the Prometheus exposition format."""
    lines: List[str] = []
    for family in registry.collect():
        if family.help:
            help_text = family.help.replace("\\", r"\\").replace("\n", r"\n")
            lines.append(f"# HELP {family.name} {help_text}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, child in family.series():
            key = series_key(family.name, labels)
            if isinstance(child, Histogram):
                cumulative = 0
                for index, count in child.nonzero_buckets():
                    cumulative += count
                    upper = child.bucket_upper(index)
                    le = dict(labels)
                    le["le"] = _fmt(upper)
                    lines.append(
                        f"{series_key(family.name + '_bucket', le)} "
                        f"{cumulative}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{series_key(family.name + '_bucket', inf_labels)} "
                    f"{child.count}"
                )
                lines.append(
                    f"{series_key(family.name + '_sum', dict(labels))} "
                    f"{_fmt(child.sum)}"
                )
                lines.append(
                    f"{series_key(family.name + '_count', dict(labels))} "
                    f"{child.count}"
                )
            else:
                lines.append(f"{key} {_fmt(child.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(registry: MetricsRegistry) -> str:
    """Serialize ``registry`` as a JSON document."""
    families = []
    for family in registry.collect():
        entry: Dict[str, object] = {
            "name": family.name,
            "type": family.kind,
            "help": family.help,
            "series": [],
        }
        for labels, child in family.series():
            if isinstance(child, Histogram):
                series: Dict[str, object] = {
                    "labels": labels,
                    "count": child.count,
                    "sum": child.sum,
                    "min": child.min,
                    "max": child.max,
                    "mean": child.mean,
                    "quantiles": dict(
                        zip(_SUFFIXES, child.percentiles(_QS))),
                    "buckets": [
                        # ``le`` is a string so the overflow bucket's
                        # "+Inf" edge stays valid JSON.
                        {"le": _fmt(child.bucket_upper(i)), "count": c}
                        for i, c in child.nonzero_buckets()
                    ],
                }
            else:
                series = {"labels": labels, "value": child.value}
            entry["series"].append(series)
        families.append(entry)
    return json.dumps({"metrics": families}, indent=1)


def render_histogram(name: str, hist: Histogram) -> str:
    """One histogram as summary stats plus an ASCII distribution sketch."""
    p50, p90, p99, p999 = hist.percentiles(_QS)
    lines = [
        f"{name}",
        f"  count={hist.count} mean={hist.mean:.6g} "
        f"min={hist.min:.6g} max={hist.max:.6g}",
        f"  p50={p50:.6g} p90={p90:.6g} p99={p99:.6g} p99.9={p999:.6g}",
    ]
    nonzero = hist.nonzero_buckets()
    if not nonzero:
        return "\n".join(lines)
    lo_index = nonzero[0][0]
    hi_index = nonzero[-1][0]
    span = hi_index - lo_index + 1
    # Fold the occupied bucket range into at most ``SKETCH_WIDTH`` columns.
    columns = min(SKETCH_WIDTH, span)
    per_col = [0] * columns
    for index, count in nonzero:
        col = (index - lo_index) * columns // span
        per_col[col] += count
    peak = max(per_col)
    bar = "".join(
        _BARS[min(len(_BARS) - 1,
                  int(round(c / peak * (len(_BARS) - 1))))] if c else " "
        for c in per_col
    )
    lines.append(
        f"  [{hist.bucket_lower(lo_index):.3g} .. "
        f"{min(hist.bucket_upper(hi_index), hist.max):.3g}] |{bar}|"
    )
    return "\n".join(lines)


def render_table(registry: MetricsRegistry) -> str:
    """Terminal view of the whole registry (the ``repro metrics`` body)."""
    scalar_rows: List[Tuple[str, str, str]] = []
    histogram_blocks: List[str] = []
    for family in registry.collect():
        for labels, child in family.series():
            key = series_key(family.name, labels)
            if isinstance(child, Histogram):
                histogram_blocks.append(render_histogram(key, child))
            else:
                scalar_rows.append((family.kind, key, _fmt(child.value)))
    lines: List[str] = []
    if scalar_rows:
        key_width = max(len(key) for _, key, _ in scalar_rows)
        for kind, key, value in scalar_rows:
            lines.append(f"{kind:<8} {key:<{key_width}}  {value}")
    if histogram_blocks:
        if lines:
            lines.append("")
        lines.extend(histogram_blocks)
    return "\n".join(lines)
