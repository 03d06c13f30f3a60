#!/usr/bin/env python3
"""Where do a benchmark workload's ``py_calls_per_query`` go?

``benchmarks/perf/run.py`` reports the count pass as one number plus
``calls_by_module``; an optimisation needs the level below that - which
function, called from where.  This runs the same count pass (same
units, same profiler placement: the timed region on the virtual clock,
loop callbacks only on the wall clock) and prints it per function:

    python tools/count_pass.py tcp_server
    python tools/count_pass.py stream_server --seed 3 --callers 'isinstance|len'
    python tools/count_pass.py tcp_server --root /root/scratch/parent

``--callers PATTERN`` (a regex over the names as printed) adds, for
every matching function, who called it and how often per query.
``--root`` points at another checkout (a clone of the parent commit) so
both sides of a change are counted by the same tool.  It imports
``benchmarks/perf`` read-only and writes nothing.
"""

import argparse
import cProfile
import os
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def name_of(code) -> str:
    """``module:line function`` for Python code, the bare name for C."""
    if isinstance(code, str):
        return code
    path = code.co_filename
    cut = path.rfind(os.sep + "repro" + os.sep)
    short = path[cut + 1:] if cut >= 0 else os.path.basename(path)
    return f"{short}:{code.co_firstlineno} {code.co_name}"


def counted_profile(workload, spans):
    """What ``measure.count_pass`` does, keeping the profile."""
    profile = cProfile.Profile()
    if workload.virtual:
        workload.profiler, restore = profile, lambda: None
    else:
        restore = spans.profile_callbacks(profile)
    try:
        queries = sum(u.run(None).issued for u in workload.count_units())
    finally:
        workload.profiler = None
        restore()
    return profile, queries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--callers", metavar="PATTERN",
                        help="also print the callers of matching functions")
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout to count (default: this one)")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "perf")]
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.open()
    try:
        workload.warmup()  # lazy imports stay out of the count
        profile, queries = counted_profile(workload, spans)
    finally:
        workload.close()

    stats = profile.getstats()
    total = sum(entry.callcount for entry in stats)
    print(f"{args.workload} seed {args.seed}: {total / queries:.2f} "
          f"calls/query over {queries} queries ({root})")
    for entry in sorted(stats, key=lambda e: -e.callcount)[:args.top]:
        print(f"  {entry.callcount / queries:8.2f}  {name_of(entry.code)}")
    if args.callers:
        pattern = re.compile(args.callers)
        print(f"callers of /{args.callers}/, calls/query:")
        edges = [(sub.callcount, name_of(sub.code), name_of(entry.code))
                 for entry in stats for sub in entry.calls or ()
                 if pattern.search(name_of(sub.code))]
        for count, callee, caller in sorted(edges, reverse=True):
            print(f"  {count / queries:8.2f}  {callee}  <-  {caller}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
