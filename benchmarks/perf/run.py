"""The repo benchmark: five workloads, one runner.

    python benchmarks/perf/run.py [--workload W] [--seed S] [--traced]
                                  [--quick] [--json OUT] [--append FILE]

prints every end-to-end metric of every workload by name with its unit
(``--traced``: the per-layer metrics too), checks the outputs, and exits
non-zero on a failed check.  The measuring harness calls it as

    python3 benchmarks/perf/run.py --workload W --seed N --seconds T --trace 0|1

and reads the last line: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md has the catalogue,
the estimator and the noise measurements behind it.

Each workload runs in its own fresh child interpreter (so set-up time
and peak RSS are per workload); eight more children that stop at their
first issued query, four before it and four after, give ``setup_s`` its
nine samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for entry in (os.path.join(ROOT, "src"), HERE):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import catalogue  # noqa: E402

#: Odd: the run child is the middle sample.  Set-up children on either
#: side of the ~20 s of passes see different moments of a noisy VM.
SETUP_SAMPLES = 9


# -- parent: spawn, assemble, print, check --------------------------------------

def spawn(mode: str, args, workload: str):
    """Run one child; returns (set-up seconds, result record or None)."""
    command = [sys.executable, os.path.abspath(__file__), "--child", mode,
               "--workload", workload, "--seed", str(args.seed)]
    if mode == "run":
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.traced:
            command.append("--traced")
        if args.quick:
            command.append("--quick")
    start = perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    setup_s = record = None
    try:
        for line in child.stdout:
            if line.startswith("@first-issue"):
                setup_s = perf_counter() - start
            elif line.startswith("@result "):
                record = json.loads(line[len("@result "):])
    finally:
        child.stdout.close()
        code = child.wait()
    if code != 0 or setup_s is None:
        raise RuntimeError(
            f"{workload}: {mode} child exited {code}"
            + ("" if setup_s is not None else " before issuing a query"))
    return setup_s, record


def run_workload(args, workload: str, golden: dict) -> dict:
    def setup_children():
        return [spawn("setup", args, workload)[0]
                for _ in range(SETUP_SAMPLES // 2)]

    setups = setup_children()
    setup_s, record = spawn("run", args, workload)
    if record is None:
        raise RuntimeError(f"{workload}: child printed no result")
    setups += [setup_s] + setup_children()

    passes = record["passes"]
    q1, median, q3 = statistics.quantiles(setups, n=4)
    values = {
        "setup_s": {"value": min(setups), "median": median,
                    "q1": q1, "q3": q3, "samples": len(setups)},
        "py_calls_per_query": {"value": record["py_calls_per_query"]},
        "peak_rss_mb": {"value": record["peak_rss_mb"]},
        "failed_share": {
            "value": record["failed"] / record["attempted"]},
    }
    values["host_us_per_query"] = dict(record["host_us_per_query"],
                                       passes=passes)
    values.update(record["extras"])
    for name, value in (record["layers"] or {}).items():
        if workload in catalogue.CATALOGUE[name].workloads:
            values[name] = {"value": value}
    for name, entry in values.items():
        entry["unit"] = catalogue.CATALOGUE[name].unit

    problems = list(record["problems"])
    expected = golden.get(workload)
    if args.seed == 0 and expected != record["digest"]:
        problems.append(
            f"digest {record['digest'][:16]} differs from golden.json's "
            f"{str(expected)[:16]}: a simulated statistic changed")
    if record["failed"]:
        problems.append(f"{record['failed']} of {record['attempted']} "
                        "queries failed or never resolved")
    return {
        "workload": workload, "seed": args.seed, "passes": passes,
        "queries_per_pass": record["queries_per_pass"],
        "attempted": record["attempted"], "failed": record["failed"],
        "digest": record["digest"], "problems": problems,
        "calibration_ns": record["calibration_ns"],
        "metrics": values, "units": record["units"],
        "notes": record["notes"],
        "calls_by_module": record["calls_by_module"],
    }


def print_workload(result: dict, traced: bool) -> None:
    name = result["workload"]
    print(f"== {name}  seed {result['seed']}  {result['passes']} passes x "
          f"{result['queries_per_pass']} queries  digest "
          f"{result['digest'][:16]}  calibration_ns "
          f"{result['calibration_ns']:.2f} ==")
    print(f"   why: {catalogue.WHY[name]}")
    tables = [("end-to-end", catalogue.END_TO_END)]
    if traced:
        tables.append(("per-layer", catalogue.PER_LAYER))
    for title, table in tables:
        print(f"  {title}:")
        for metric in table:
            entry = result["metrics"].get(metric.name)
            if entry is None or name not in metric.workloads:
                continue
            line = (f"    {metric.name:42s} {entry['value']:14.6g} "
                    f"{metric.unit:6s}")
            if "median" in entry:
                line += (f" (median {entry['median']:.6g}, IQR "
                         f"{entry['q3'] - entry['q1']:.3g})")
            if metric.bound is not None:
                kind = "abs" if metric.absolute else "rel"
                line += f" [{metric.better} is better, bound {metric.bound:g} {kind}]"
            print(line)
    for note, value in result["notes"].items():
        print(f"    note: {note} = {value}")
    if traced:
        top = ", ".join(f"{m} {c}" for m, c in list(
            result["calls_by_module"].items())[:6])
        print(f"    count pass, calls by module: {top}")
    if result["problems"]:
        for problem in result["problems"]:
            print(f"  CHECK FAILED: {problem}")
    else:
        print("  checks: ok")


def driver_line(result: dict, traced: bool) -> str:
    """The harness contract: exactly these keys, and every metric that
    ``BENCHMARK.json`` lists (each one measured by every workload)."""
    names = (catalogue.DRIVER_PER_LAYER if traced
             else catalogue.DRIVER_END_TO_END)
    metrics = {name: {"value": float(result["metrics"][name]["value"]),
                      "unit": catalogue.CATALOGUE[name].unit}
               for name in names}
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _git(*command: str) -> str:
    try:
        return subprocess.run(
            ("git",) + command, cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def invocation_record(args, results) -> dict:
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "traced": args.traced,
        "workloads": {r["workload"]: {
            "passes": r["passes"], "digest": r["digest"],
            "calibration_ns": r["calibration_ns"],
            "attempted": r["attempted"], "failed": r["failed"],
            "correct": not r["problems"], "metrics": r["metrics"],
        } for r in results},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=catalogue.ALL,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is also checked against "
                             "golden.json")
    parser.add_argument("--traced", action="store_true",
                        help="add the traced pass and per-layer metrics")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="harness spelling of --traced")
    parser.add_argument("--seconds", type=int, default=None,
                        help="fit each workload's passes into this many "
                             "seconds (default: the fixed pass counts)")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the fixed pass counts")
    parser.add_argument("--json", metavar="OUT",
                        help="write this invocation's record to OUT")
    parser.add_argument("--append", metavar="FILE",
                        help="append this invocation's record as one JSON "
                             "line (the trajectory)")
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is not None:
        args.traced = bool(args.trace)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        started = perf_counter()  # --seconds counts from here
        from measure import child_main
        return child_main(args, started)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    print(f"# python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"seed {args.seed}")
    names = [args.workload] if args.workload else list(catalogue.ALL)
    results = []
    for name in names:
        result = run_workload(args, name, golden)
        print_workload(result, args.traced)
        results.append(result)

    record = invocation_record(args, results)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    if args.append:
        with open(args.append, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    broken = [r["workload"] for r in results if r["problems"]]
    if len(results) == 1:
        print(driver_line(results[0], args.traced))
    else:
        print("all checks passed" if not broken
              else "checks FAILED on: " + ", ".join(broken))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
