"""Checks on the benchmark itself (not tier-1; takes about a minute).

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_perf_bench.py

Runs the five workloads once with ``--quick --traced`` and asserts the
output schema, the catalogue's shape, that ``BENCHMARK.json`` is the
one ``catalogue.py`` generates, well-formed span trees, and transparent
tracing.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One ``--quick --traced`` pass over all five workloads."""
    work = tmp_path_factory.mktemp("perf")
    out = work / "record.json"
    done = subprocess.run(
        RUN + ["--quick", "--traced", "--seed", "1", "--json", str(out)],
        cwd=work, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return work, json.loads(out.read_text()), done.stdout


def test_catalogue_shape():
    names = [m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in catalogue.END_TO_END + catalogue.PER_LAYER:
        assert catalogue.NAME_RE.match(metric.name), metric.name
        assert catalogue.UNIT_RE.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
        assert set(metric.workloads) <= set(catalogue.ALL), metric
    for metric in catalogue.END_TO_END:
        if metric.driver:
            assert metric.bound is not None and not metric.absolute, metric
        if metric.bound is not None:
            assert 0 < metric.bound <= (1.0 if metric.absolute else 0.25)
    assert len(catalogue.DRIVER_END_TO_END) <= 16
    assert len(catalogue.DRIVER_PER_LAYER) <= 128
    assert "setup_s" in catalogue.DRIVER_END_TO_END


def test_benchmark_json_is_the_generated_one():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec == catalogue.benchmark_json()
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    # 4 + 22 runs per workload, each --seconds plus eight set-up
    # children (up to ~1 s each on tcp_server).
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 9) <= 3420


def test_quick_run_schema(quick_run):
    _, record, stdout = quick_run
    assert set(record["workloads"]) == set(catalogue.ALL)
    assert record["nproc"] >= 1 and record["git_sha"]
    for name, workload in record["workloads"].items():
        assert workload["correct"] and workload["calibration_ns"] > 0, name
        assert workload["attempted"] >= 1 and workload["failed"] == 0
        for metric_name, entry in workload["metrics"].items():
            metric = catalogue.CATALOGUE[metric_name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float))
        applicable = {m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER
                      if name in m.workloads}
        assert applicable == set(workload["metrics"]), (
            name, applicable ^ set(workload["metrics"]))
        for gated in catalogue.DRIVER_END_TO_END:
            assert workload["metrics"][gated]["value"] > 0, (name, gated)
        # every applicable metric is printed by name with its unit
        for metric_name in applicable:
            assert metric_name in stdout
    assert "checks: ok" in stdout and "CHECK FAILED" not in stdout


def test_trace_files_are_well_formed(quick_run):
    work, record, _ = quick_run
    for name in catalogue.ALL:
        path = work / ".benchmarks" / "perf" / f"{name}.trace.json"
        trace = json.loads(path.read_text())
        rows = [tuple(s) for s in trace["spans"]]
        assert rows and trace["spans_total"] >= len(rows)
        assert spans.check_span_tree(rows) == []
        for kinds in trace["layers"].values():
            for entry in kinds.values():
                assert entry["self_s"] >= -1e-9 and entry["calls"] >= 1
        assert sum(trace["calls_by_module"].values()) > 0
    for name in catalogue.VIRTUAL:
        metrics = record["workloads"][name]["metrics"]
        assert metrics["trace.unattributed_share"]["value"] <= 0.15
        assert metrics["trace.overhead_ratio"]["value"] > 0


def test_other_seed_changes_the_traffic(quick_run):
    _, record, _ = quick_run
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    assert set(golden) == set(catalogue.ALL)
    for name, workload in record["workloads"].items():
        assert workload["digest"] != golden[name], name


@pytest.mark.parametrize("trace", [0, 1])
def test_harness_contract_line(tmp_path, trace):
    done = subprocess.run(
        RUN + ["--workload", "stream_server", "--seed", "7",
               "--seconds", "4", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    expected = (catalogue.DRIVER_PER_LAYER if trace
                else catalogue.DRIVER_END_TO_END)
    assert list(line["metrics"]) == list(expected)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == catalogue.CATALOGUE[name].unit


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    """Only the benchmark's own files: exit non-zero, print no result."""
    import shutil

    perf = tmp_path / "benchmarks" / "perf"
    shutil.copytree(HERE, perf, ignore=shutil.ignore_patterns(
        "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, str(perf / "run.py"), "--workload", "server_core",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _record(value, q1=None, q3=None, digest="d", seed=0):
    entry = {"value": value, "unit": "s"}
    if q1 is not None:
        entry.update(q1=q1, q3=q3)
    return {"seed": seed, "workloads": {"server_core": {
        "digest": digest, "metrics": {
            "setup_s": entry,
            "host_us_per_query": {"value": value * 50, "unit": "us"},
            "py_calls_per_query": {"value": 125.0, "unit": "count"}}}}}


def test_compare_verdicts():
    def row(a, b, name="setup_s"):
        return {r[1]: r[-1] for r in compare.compare(a, b)}[name]

    base = [_record(0.32, 0.38, 0.44)]
    assert row(base, [_record(0.33, 0.38, 0.44)]) == "within"
    assert row(base, [_record(0.60, 0.66, 0.72)]) == "worse"
    assert row(base, [_record(0.20, 0.22, 0.24)]) == "better"
    # moved past the bound, but the children's quartile ranges overlap
    assert row(base, [_record(0.42, 0.43, 0.50)]) == "unresolved"
    # several runs per side: spread wider than the bound, runs interleave
    noisy_a = [_record(v) for v in (0.26, 0.32, 0.42, 0.48)]
    noisy_b = [_record(v) for v in (0.28, 0.33, 0.40, 0.50)]
    assert row(noisy_a, noisy_b) == "unresolved"
    # host time has no bound: reported, never gated
    assert row(base, [_record(0.60, 0.66, 0.72)],
               "host_us_per_query") == "info"
    assert row(base, [_record(0.32, 0.38, 0.44, digest="x")],
               "digest seed 0") == "differs"
