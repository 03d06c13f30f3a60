#!/usr/bin/env python3
"""Where do a benchmark workload's ``py_calls_per_query`` go?

``benchmarks/perf/run.py`` reports the count pass as one number plus
``calls_by_module``; an optimisation needs the level below that - which
function, called from where.  This runs the same count pass (same
units, same profiler placement: the timed region on the virtual clock,
loop callbacks only on the wall clock) and prints it per function:

    python tools/count_pass.py tcp_server
    python tools/count_pass.py stream_server --seed 3 --callers 'isinstance|len'
    python tools/count_pass.py tcp_server --root ../parent
    python tools/count_pass.py paper_sweep --against ../parent
    python tools/count_pass.py tcp_server --seeds 0,7 --against ../parent
    python tools/count_pass.py all --seeds 0 --against ../parent
    python tools/count_pass.py all --seeds 0,7 --against ../parent \
        --flat tcp_server

When the counted run streamed, the calls per chunk (all calls over
the chunks the referee logged) are printed beside the calls per query.
``--callers PATTERN`` (a regex over the names as printed) adds, for
every matching function, who called it and how often per query.
``--root`` points at another checkout (a clone of the parent commit) so
both sides of a change are counted by the same tool; ``--against ROOT``
counts both and prints the per-function difference (calls/query here,
there, here minus there, largest saving first), with functions matched
by qualified name because line numbers move.  ``--seeds A,B,...`` counts
once per seed (each in a child process) and prints one total per seed;
with ``--against`` it prints both totals and their difference per seed
and exits non-zero when the difference changes sign between seeds - a
saving that holds at one seed only is not a saving.  The workload
``all`` counts every benchmark workload that way, one row per workload
and seed (``--seed`` when no ``--seeds`` is given): with ``--against``
that is the "every other workload stays flat" check of a change.
``--flat NAME,...`` (with ``--against``) makes that check a verdict:
the exit status is non-zero when a workload not listed moves by more
than :data:`FLAT` calls/query at any seed - list the workloads the
change is meant to move (``--flat ''`` holds every one flat).  It
imports ``benchmarks/perf`` read-only and writes nothing.
"""

import argparse
import collections
import cProfile
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALL = "all"
#: How far, in calls/query, ``--flat`` lets an unlisted workload move.
FLAT = 0.01


def name_of(code, line: bool = True) -> str:
    """``module:line function`` for Python code, the bare name for C;
    ``module qualified.name`` when the line is not wanted."""
    if isinstance(code, str):
        return code if line else re.sub(r" at 0x[0-9a-f]+", "", code)
    path = code.co_filename
    cut = path.rfind(os.sep + "repro" + os.sep)
    short = path[cut + 1:] if cut >= 0 else os.path.basename(path)
    if line:
        return f"{short}:{code.co_firstlineno} {code.co_name}"
    return f"{short} {code.co_qualname}"


def counted_profile(workload, spans):
    """What ``measure.count_pass`` does, keeping the profile; returns it
    with the queries issued and the stream chunks logged."""
    profile = cProfile.Profile()
    if workload.virtual:
        workload.profiler, restore = profile, lambda: None
    else:
        restore = spans.profile_callbacks(profile)
    try:
        outcomes = [u.run(None) for u in workload.count_units()]
    finally:
        workload.profiler = None
        restore()
    queries = sum(o.issued for o in outcomes)
    chunks = sum(o.info["result"].log.stream_chunks
                 for o in outcomes if "result" in o.info)
    return profile, queries, chunks


def calls_by_name(stats) -> dict:
    """Call counts keyed by line-free name (same-named lambdas add up)."""
    calls = collections.Counter()
    for entry in stats:
        calls[name_of(entry.code, line=False)] += entry.callcount
    return calls


def counted_in_child(workload: str, seed: int, root: Path) -> tuple:
    """The count in a child process over ``root``'s checkout: two
    checkouts' ``repro`` cannot share one interpreter, and a workload is
    built for one seed.  Returns the calls by name, the queries and the
    stream chunks."""
    child = subprocess.run(
        [sys.executable, __file__, workload, "--seed", str(seed),
         "--root", str(root), "--dump"],
        check=True, capture_output=True, text=True)
    dumped = json.loads(child.stdout)
    return dumped["calls"], dumped["queries"], dumped["chunks"]


def per_query(counted: tuple) -> float:
    calls, queries, _ = counted
    return sum(calls.values()) / queries


def per_chunk(counted: tuple) -> float:
    """All calls over the chunks logged; 0.0 when nothing streamed."""
    calls, _, chunks = counted
    return sum(calls.values()) / chunks if chunks else 0.0


def use_checkout(root: Path):
    """Put ``root``'s ``repro`` and ``benchmarks/perf`` first on the path
    and return its ``workloads`` module."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "perf")]
    import workloads
    return workloads


def count_each_seed(args, names) -> int:
    """``--seeds``: one total per workload and seed; with ``--against``,
    both totals and their difference, failing when its sign differs
    between seeds or, under ``--flat``, when a workload not listed
    moves."""
    flipped, moved = [], []
    for workload in names:
        signs = set()
        for seed in args.seeds:
            ours = counted_in_child(workload, seed, args.root)
            here = per_query(ours)
            line = f"{workload} seed {seed}: {here:.2f} calls/query"
            if args.against:
                theirs = counted_in_child(workload, seed, args.against)
                there = per_query(theirs)
                delta = round(here - there, 2)
                signs.add((delta > 0) - (delta < 0))
                if (args.flat is not None and workload not in args.flat
                        and abs(here - there) > FLAT):
                    moved.append(f"{workload} seed {seed}: {delta:+.2f}")
                line += f", against {there:.2f}, difference {delta:+.2f}"
            mine = per_chunk(ours)
            if mine:
                line += f"; {mine:.2f} calls/chunk"
                if args.against:
                    other = per_chunk(theirs)
                    line += (f", against {other:.2f}, "
                             f"difference {mine - other:+.2f}")
            print(line, flush=True)
        if len(signs) > 1:
            flipped.append(workload)
    for workload in flipped:
        print(f"{workload}: the difference against {args.against.resolve()} "
              "changes sign between seeds", file=sys.stderr)
    for line in moved:
        print(f"{line} calls/query against {args.against.resolve()}, "
              f"more than --flat's {FLAT}", file=sys.stderr)
    return 1 if flipped or moved else 0


def print_delta(args, here: dict, queries: int) -> None:
    there, their_queries, _ = counted_in_child(
        args.workload, args.seed, args.against)
    print(f"against {args.against.resolve()} ({their_queries} queries), "
          "calls/query here, there, difference:")
    rows = [(here.get(name, 0) / queries, there.get(name, 0) / their_queries,
             name) for name in set(here) | set(there)]
    changed = sorted((row for row in rows if row[0] != row[1]),
                     key=lambda row: (row[0] - row[1], row[2]))
    ours, theirs = (sum(row[side] for row in rows) for side in (0, 1))
    for row in changed[:args.top] + [(ours, theirs, "total")]:
        print(f"  {row[0]:8.2f} {row[1]:8.2f} {row[0] - row[1]:+8.2f}  "
              f"{row[2]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help=f"a benchmark workload, or {ALL!r}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", metavar="A,B,...",
                        type=lambda text: [int(s) for s in text.split(",")],
                        help="count once per seed and print the totals")
    parser.add_argument("--callers", metavar="PATTERN",
                        help="also print the callers of matching functions")
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout to count (default: this one)")
    parser.add_argument("--against", type=Path, metavar="ROOT",
                        help="also count this checkout and print the "
                             "per-function difference")
    parser.add_argument("--flat", metavar="NAME,...",
                        type=lambda text: set(filter(None, text.split(","))),
                        help="with --against: fail when a workload not "
                             f"listed moves by more than {FLAT} calls/query")
    parser.add_argument("--dump", action="store_true",
                        help=argparse.SUPPRESS)  # --against's child
    args = parser.parse_args(argv)
    if args.flat is not None and not args.against:
        parser.error("--flat needs --against")

    root = args.root.resolve()
    workloads = use_checkout(root)
    known = list(workloads.WORKLOADS)
    for name in ({args.workload} - {ALL}) | (args.flat or set()):
        if name not in known:
            parser.error(f"unknown workload {name!r}; one of "
                         + ", ".join(known))
    if (args.workload == ALL or args.flat is not None) and not args.seeds:
        args.seeds = [args.seed]
    if args.seeds:
        return count_each_seed(
            args, known if args.workload == ALL else [args.workload])

    import spans
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.open()
    try:
        workload.warmup()  # lazy imports stay out of the count
        profile, queries, chunks = counted_profile(workload, spans)
    finally:
        workload.close()

    stats = profile.getstats()
    if args.dump:
        json.dump({"queries": queries, "chunks": chunks,
                   "calls": calls_by_name(stats)}, sys.stdout)
        return 0
    total = sum(entry.callcount for entry in stats)
    streamed = (f", {total / chunks:.2f} calls/chunk over {chunks} chunks"
                if chunks else "")
    print(f"{args.workload} seed {args.seed}: {total / queries:.2f} "
          f"calls/query over {queries} queries{streamed} ({root})")
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
    if args.against:
        print_delta(args, calls_by_name(stats), queries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
