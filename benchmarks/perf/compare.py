"""Compare two benchmark records against the catalogue's bounds.

    python benchmarks/perf/compare.py A.json B.json

``A`` is the baseline, ``B`` the candidate.  Each file is what
``run.py --json`` wrote (one invocation) or what ``run.py --append``
accumulated (one invocation per line; the median over lines is
compared, and the quartiles over lines are the spread).  One row per
(workload, end-to-end metric):

* ``within``     - B is no worse than A by more than the metric's bound;
* ``worse`` / ``better`` - B moved past the bound, and the two sides'
  spreads do not overlap;
* ``unresolved`` - B moved past the bound but the spreads overlap, or
  (several runs per side) the run-to-run spread is wider than the bound
  and some run of B is not better than some run of A;
* ``info``       - the metric has no bound (host time).

The spread of a side is the quartile range of its runs; with one run
per side it is the quartile range the runner printed beside the value
(of the run's passes, open-loop segments or set-up children), else the
value itself.  Digests and
``py_calls_per_query`` on the virtual-clock workloads must agree
exactly; rows that do not are listed as ``differs``.  Exits 1 if any
row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import catalogue


def load(path: str) -> List[dict]:
    with open(path) as handle:
        text = handle.read()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def _side(records: List[dict], workload: str, name: str):
    """(median value, spread low, spread high, every value) or None."""
    entries = [r["workloads"][workload]["metrics"][name] for r in records
               if name in r["workloads"].get(workload, {}).get("metrics", {})]
    if not entries:
        return None
    values = [e["value"] for e in entries]
    if len(values) >= 2:
        low, _, high = statistics.quantiles(values, n=4)
    elif "q1" in entries[0]:
        low, high = entries[0]["q1"], entries[0]["q3"]
        # The best-of estimator sits below its passes' quartiles.
        low = min(low, values[0])
    else:
        low = high = values[0]
    return statistics.median(values), low, high, values


def verdict(metric: catalogue.Metric, a, b) -> Tuple[str, float]:
    """Row verdict and B's worsening (share of A, or absolute)."""
    a_value, a_low, a_high, a_all = a
    b_value, b_low, b_high, b_all = b
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (b_value - a_value)
    scale = 1.0 if metric.absolute else abs(a_value)
    if scale == 0.0:
        return ("within" if worsening <= 0 else "worse"), worsening
    worsening /= scale
    if metric.bound is None:
        return "info", worsening
    if worsening > metric.bound:
        moved = "worse"
    elif worsening < -metric.bound:
        moved = "better"
    else:
        moved = "within"
    overlap = a_low <= b_high and b_low <= a_high
    if moved != "within":
        return ("unresolved" if overlap else moved), worsening
    several = len(a_all) >= 2 and len(b_all) >= 2
    if several:
        spread = max(a_high - a_low, b_high - b_low) / scale
        b_always_better = (max(b_all) < min(a_all) if sign > 0
                           else min(b_all) > max(a_all))
        if spread > metric.bound and not b_always_better:
            return "unresolved", worsening
    return moved, worsening


def compare(a_records: List[dict], b_records: List[dict]) -> List[tuple]:
    rows = []
    workloads = [w for w in catalogue.ALL
                 if any(w in r["workloads"] for r in a_records)
                 and any(w in r["workloads"] for r in b_records)]
    for workload in workloads:
        for metric in catalogue.END_TO_END:
            if workload not in metric.workloads:
                continue
            a = _side(a_records, workload, metric.name)
            b = _side(b_records, workload, metric.name)
            if a is None or b is None:
                continue
            row, worsening = verdict(metric, a, b)
            rows.append((workload, metric.name, a[0], b[0], worsening,
                         metric.bound, row))
        rows.extend(_exact_rows(a_records, b_records, workload))
    return rows


def _exact_rows(a_records, b_records, workload) -> List[tuple]:
    """What must repeat exactly for one seed: digests, and call counts
    where the clock is virtual."""
    by_seed: Dict[int, dict] = {}
    for side, records in (("a", a_records), ("b", b_records)):
        for record in records:
            if workload in record["workloads"]:
                by_seed.setdefault(record["seed"], {}).setdefault(
                    side, record["workloads"][workload])
    rows = []
    for seed, sides in sorted(by_seed.items()):
        if len(sides) < 2:
            continue
        names = [("digest", lambda w: w["digest"])]
        if workload in catalogue.VIRTUAL:
            names.append(("py_calls_per_query (exact)", lambda w: w[
                "metrics"]["py_calls_per_query"]["value"]))
        for label, read in names:
            a_value, b_value = read(sides["a"]), read(sides["b"])
            row = "same" if a_value == b_value else "differs"
            if label == "digest":
                a_value, b_value = a_value[:12], b_value[:12]
            rows.append((workload, f"{label} seed {seed}", a_value, b_value,
                         0.0, None, row))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':22s} {'metric':36s} {'A':>14s} {'B':>14s} "
          f"{'worsening':>10s} {'bound':>7s}  verdict")
    for workload, name, a, b, worsening, bound, row in rows:
        a_text = f"{a:14.6g}" if isinstance(a, float) else f"{a!s:>14s}"
        b_text = f"{b:14.6g}" if isinstance(b, float) else f"{b!s:>14s}"
        bound_text = (f"{bound:7.3g}" if bound is not None
                      else "   none" if row == "info" else "  exact")
        print(f"{workload:22s} {name:36s} {a_text} {b_text} "
              f"{worsening:+10.4f} {bound_text}  {row}")
    bad = [r for r in rows if r[-1] in ("worse", "differs")]
    unresolved = [r for r in rows if r[-1] == "unresolved"]
    print(f"{len(rows)} rows: {len(bad)} worse or differing, "
          f"{len(unresolved)} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
