#!/usr/bin/env python3
"""Which functions of ``src/repro`` does no program path enter?

The environment has neither ``coverage`` nor ``vulture``, so this is
function-level coverage from what the interpreter ships: a
``sys.settrace`` hook that notes the first *call* of every code object
under ``src/repro`` and declines to trace lines.  The hook is loaded
through a ``sitecustomize`` module on ``PYTHONPATH``, so it is live in
every interpreter a command starts - pytest itself, forked and spawned
worker processes, CLI children - and each process appends what it
enters to its own file as it goes (a killed worker loses nothing).

    python tools/function_coverage.py                  # the check
    python tools/function_coverage.py -- python -m pytest -q   # tier-1
    python tools/function_coverage.py --keep /tmp/cov -- \\
        python -m pytest -q tests/core                # add to DIR
    python tools/function_coverage.py --keep /tmp/cov --report-only

By default it traces the program paths (``PROGRAM_PATHS``): the repo
benchmark's quick run, every example, the recorded CLI cases, the
paper benchmarks outside ``benchmarks/perf`` and ``repro run --sut
network`` against a ``repro serve`` child, plain and streamed (~15 min
on two cores).  A command that fails under the hook runs once more
without it, and the report labels the failure ``fails untraced too`` (a
real failure) or ``fails only under the hook`` (the hook's cost: some
host-time budgets in ``benchmarks/`` fail only under it).  Neither is
gated.

The report attributes every function-body line (docstrings aside) to
its innermost function and prints the functions never entered, largest
first, with the share of body lines they hold.  Over the program paths
it is also the check - it exits non-zero when

* a never-entered function is neither exempt (a declaration, whose
  body is only a docstring, ``...``, ``pass`` or ``raise
  NotImplementedError``, or a dunder other than ``__init__``) nor in
  ``KEEP``, or
* a ``KEEP`` entry is entered or no longer names a function.

With a command of your own the report is a reading aid and the exit
status is the command's.  Edit no source while it runs - the report
matches calls to functions by the line they start on.
"""

import argparse
import ast
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ENV = "REPRO_FUNCTION_COVERAGE"
PYTHON = sys.executable

#: What the program runs: ``(serve args, run args)`` is ``repro run``
#: against a ``repro serve`` child on a free loopback port.
PROGRAM_PATHS = [
    [PYTHON, "benchmarks/perf/run.py", "--quick"],
    *([PYTHON, f"examples/{path.name}"]
      for path in sorted((REPO / "examples").glob("*.py"))),
    [PYTHON, "-m", "pytest", "-q", "-p", "no:cacheprovider",
     "tests/integration/test_cli.py"],
    [PYTHON, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
     "--ignore=benchmarks/perf", "--benchmark-disable"],
    ([], ["--scenario", "single-stream", "--queries", "50"]),
    (["--backend", "streaming-echo"],
     ["--scenario", "server", "--target-qps", "400", "--queries", "40",
      "--stream"]),
]

#: Functions no program path enters, kept, and why each stays.  Keyed
#: ``path:qualname`` from the repo root.
_CLIENT = "src/repro/network/client.py:NetworkSUT."
_PROTOCOL = "src/repro/network/protocol.py:"
_SERVER = "src/repro/network/server.py:"
KEEP = {
    # Fault paths: a fault-scenario generator must reach them.
    _CLIENT + "_connection_lost": "fault path: a connection drops mid-run",
    _CLIENT + "_reconnect_loop": "fault path: redialling a lost server",
    _CLIENT + "_reconnect_loop._register":
        "fault path: a redialled connection rejoins the pool",
    _CLIENT + "_attempt_lost": "fault path: an attempt dies with its "
                               "connection",
    _CLIENT + "_expired": "fault path: an attempt outlives --query-timeout",
    _CLIENT + "_flawed": "fault path: the server FAILs a query",
    _CLIENT + "_absorbed": "fault path: an answer for an attempt already "
                           "given up",
    "src/repro/faults/resilient.py:ResilientSUT._absorbed":
        "fault path: a late answer to a retried attempt",
    "src/repro/faults/resilient.py:ResilientSUT._budget_reason":
        "fault path: retries exhaust RetryPolicy.total_timeout",
    "src/repro/durability/healing.py:SelfHealingSUT._flawed":
        "fault path: the primary answers flawed (malformed, duplicate)",
    "src/repro/fleet/replicaset.py:ReplicaSet._flawed":
        "fault path: a replica answers flawed (malformed, duplicate)",
    _SERVER + "_classify_bind_error":
        "fault path: 'repro serve' cannot bind its port",
    _SERVER + "ServerStartupError.__init__":
        "fault path: 'repro serve' cannot bind its port",
    _SERVER + "InferenceServer._send_fail":
        "protocol refusal: the backend fails a query (FAIL frame)",
    _PROTOCOL + "fail_frame":
        "protocol refusal: the backend fails a query (FAIL frame)",
    _PROTOCOL + "parse_fail":
        "protocol refusal: the client reads a FAIL frame",
    _PROTOCOL + "_unencodable": "protocol refusal: an answer the wire "
                                "cannot carry fails one query",
    _PROTOCOL + "_truncated": "protocol refusal: a payload shorter than "
                              "its counts",
    _PROTOCOL + "_malformed": "protocol refusal: a frame whose fields do "
                              "not parse",
    _PROTOCOL + "_dec_unknown": "protocol refusal: an unknown payload tag",
    "src/repro/core/events.py:EventLoop._compact":
        "fault path: more than half the heap is cancelled timers (a "
        "storm of expired deadlines)",
    "src/repro/core/events.py:_Train.cancel":
        "EventLoop API: schedule_train's handle cancels as schedule's "
        "does; no program stream is called off",
    "src/repro/core/events.py:VirtualClock.advance_to":
        "guard: the event loop calls it only to raise on an event "
        "scheduled in the past",
    "src/repro/parallel/pool.py:_needed_bytes":
        "overflow path: a batch's outputs do not fit the shared-memory "
        "arena and go back pickled",
    "src/repro/core/loadgen.py:_run.busy":
        "a ticker service on a multi-tenant run polls it; the one-tenant "
        "busy() beside it (_run.busy#2) is the one the program's tickers "
        "call",
    # Wire value types: decoded from whatever a remote peer sends.
    _PROTOCOL + "_enc_ndarray": "wire value type: a numpy answer",
    _PROTOCOL + "_dec_ndarray": "wire value type: a numpy answer",
    _PROTOCOL + "_enc_bytes": "wire value type: a bytes answer",
    _PROTOCOL + "_dec_bytes": "wire value type: a bytes answer",
    _PROTOCOL + "_enc_list": "wire value type: a list or tuple answer",
    _PROTOCOL + "load_frame": "the LOAD frame, the untimed preload of "
                              "docs/architecture.md (Fig. 3 steps 1-4)",
    _PROTOCOL + "parse_load": "the LOAD frame, the untimed preload of "
                              "docs/architecture.md (Fig. 3 steps 1-4)",
    _CLIENT + "load_samples": "sends the LOAD frame; the program's "
                              "synthetic QSLs preload nothing remote",
    # Patched by name in benchmarks/perf.
    "src/repro/core/logging.py:QueryLog.record_completion":
        "benchmarks/perf/spans.py spans it by name",
    # Oracles and documented API, in the dead-name lint's KEEP too.
    "src/repro/models/training.py:numerical_gradient":
        "oracle: the central difference backprop is checked against",
    "src/repro/metrics/primitives.py:Histogram._index":
        "oracle: the reference the inlined Histogram.observe matches",
    _PROTOCOL + "decode_value":
        "oracle: encode_value's inverse, the codec's round trip",
    "src/repro/datasets/wmt.py:SyntheticWmt.ideal_translation":
        "oracle: the noiseless cipher the translator is compared with",
    "src/repro/core/sut.py:SutBase.emit_chunk":
        "documented SUT-author API: how a streaming SUT sends a chunk",
    "src/repro/core/stats.py:percentile":
        "documented reference: docs/observability.md names it as the "
        "post-hoc rank the live histogram matches",
    "src/repro/metrics/snapshot.py:Snapshot.get":
        "documented API: docs/observability.md's worked example reads a "
        "snapshot series through it",
    "src/repro/faults/sut.py:DegradedSUT.partition":
        "documented API: docs/architecture.md's valve verbs, with "
        "degrade and restore",
    # Interface members the program's implementations never need.
    "src/repro/harness/netbench.py:SyntheticQSL.get_sample":
        "QuerySampleLibrary interface: the echo backends answer with the "
        "index and never fetch the sample",
    "src/repro/datasets/qsl.py:DatasetQSL.name":
        "QuerySampleLibrary interface: the run never reads a QSL's name",
    "src/repro/core/logging.py:_jsonable":
        "a detail log whose run kept response payloads "
        "(log_sample_probability > 0) serializes them through it",
    "src/repro/fleet/balancer.py:SessionAffinityPolicy.notify_failed":
        "fault path: a session's turn fails and its pin is released",
    "src/repro/fleet/balancer.py:SessionAffinityPolicy.notify_rescued":
        "fault path: a pinned replica dies mid-turn and the pin moves",
    "src/repro/harness/netbench.py:parallel_echo_backend.echo_factory"
    ".predict": "the model 'repro serve --backend parallel' runs in its "
                "pool workers",
    # Telemetry a caller turns on by passing a registry.
    "src/repro/parallel/sut.py:_ParallelInstruments.__init__":
        "telemetry: ParallelSUT(registry=...)",
    _SERVER + "_ServerInstruments.__init__":
        "telemetry: InferenceServer(registry=...)",
    _SERVER + "_ServerInstruments.set_busy":
        "telemetry: InferenceServer(registry=...)",
    _SERVER + "_ServerInstruments.worker_busy_child":
        "telemetry: InferenceServer(registry=...)",
}

#: The hook, written out as ``sitecustomize.py``.  ``{env}`` names the
#: directory the per-process files go to, ``{prefix}`` what to record.
HOOK = '''
import os, sys, threading

_dir = os.environ.get("{env}")
if _dir:
    _prefix = "{prefix}"
    _seen = set()
    _out = None

    def _reopen():
        global _out
        _out = open(os.path.join(_dir, "%d.calls" % os.getpid()), "a",
                    buffering=1)

    def _hook(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_prefix):
                _out.write("%s:%d\\n" % (code.co_filename,
                                         code.co_firstlineno))
        return None  # calls only: no line events for this frame

    _reopen()
    os.register_at_fork(after_in_child=_reopen)
    threading.settrace(_hook)
    sys.settrace(_hook)
'''


def _serve_and_run(serve_args, run_args, env):
    """``repro run --sut network`` against a ``repro serve`` child; the
    child gets SIGTERM (a graceful drain) when the run is over."""
    cli = [PYTHON, "-u", "-m", "repro.cli"]
    server = subprocess.Popen(cli + ["serve", "--port", "0"] + serve_args,
                              cwd=REPO, env=env, stdout=subprocess.PIPE,
                              text=True)
    try:
        banner = server.stdout.readline()
        match = re.search(r" on (\S+)\s*$", banner)
        if match is None:
            print(f"server child did not come up: {banner!r}")
            return 1
        return subprocess.call(
            cli + ["run", "--sut", "network", "--addr", match.group(1)]
            + run_args, cwd=REPO, env=env)
    finally:
        server.send_signal(signal.SIGTERM)
        server.communicate(timeout=30)


def _run(command, env):
    if isinstance(command, tuple):
        return _serve_and_run(*command, env)
    return subprocess.call(command, cwd=REPO, env=env)


def run_traced(commands, out_dir):
    """Run each command with the hook live in it and in its children;
    returns ``(command, status, label)`` of each that failed, the label
    saying whether it fails again untraced."""
    failed = []
    with tempfile.TemporaryDirectory() as site:
        Path(site, "sitecustomize.py").write_text(
            HOOK.format(env=ENV, prefix=str(SRC)))
        env = dict(os.environ)
        env[ENV] = str(out_dir)
        env["PYTHONPATH"] = os.pathsep.join(
            [site, str(REPO / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        untraced = {k: v for k, v in env.items() if k != ENV}
        for command in commands:
            print(f"$ {command}", flush=True)
            status = _run(command, env)
            if status:
                print(f"$ {command}  (again, untraced)", flush=True)
                label = ("fails untraced too" if _run(command, untraced)
                         else "fails only under the hook")
                failed.append((command, status, label))
    return failed


def entered(out_dir):
    """``{(filename, first line)}`` over every process's file."""
    calls = set()
    for path in Path(out_dir).glob("*.calls"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            calls.add((filename, int(lineno)))
    return calls


def exempt(node):
    """Why a function needs neither a caller nor a ``KEEP`` entry:
    ``"dunder"`` (the interpreter calls it), ``"declaration"`` (an
    interface with no body to run), or None."""
    name = node.name
    if name.startswith("__") and name.endswith("__") and name != "__init__":
        return "dunder"
    body = node.body
    if _is_docstring(body[0]):
        body = body[1:]
    if all(_declares(statement) for statement in body):
        return "declaration"
    return None


def _is_docstring(statement):
    return (isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and isinstance(statement.value.value, str))


def _declares(statement):
    """``...``, ``pass`` or ``raise NotImplementedError[(...)]``."""
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr):
        return (isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis)
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def functions(path):
    """``(qualified name, first line, body lines, exempt)`` of every
    function in ``path``.  A line belongs to the innermost function
    around it, a docstring to none, and the first line is the one
    ``co_firstlineno`` reports (a decorator's, if there is one).  A
    name defined twice in one scope (``def`` in both arms of an ``if``)
    is ``name#2`` the second time."""
    found = []
    copies = {}  # qualified name -> definitions seen so far

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if _is_docstring(body[0]):
                    body = body[1:]
                lines = set()
                for statement in body:
                    lines.update(range(statement.lineno,
                                       statement.end_lineno + 1))
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = f"{scope}{child.name}"
                copies[name] = copy = copies.get(name, 0) + 1
                if copy > 1:
                    name = f"{name}#{copy}"
                found.append((name, first, lines, exempt(child)))
                nested_from = len(found)
                visit(child, f"{name}.")
                for _, _, inner, _ in found[nested_from:]:
                    lines -= inner
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def report(out_dir, check):
    """Print the never-entered functions; with ``check``, also what
    breaks the rule, and return whether anything does."""
    calls = entered(out_dir)
    total = missed_lines = 0
    missed, unexcused, stale = [], [], set(KEEP)
    for path in sorted(SRC.rglob("*.py")):
        for name, first, lines, why in functions(path):
            key = f"{path.relative_to(REPO)}:{name}"
            stale.discard(key)
            total += len(lines)
            if (str(path), first) in calls:
                if key in KEEP:
                    stale.add(key)
                continue
            missed_lines += len(lines)
            label = why or ("KEEP" if key in KEEP else "")
            missed.append((len(lines), f"{path.relative_to(REPO)}:{first}",
                           name, label))
            if not label:
                unexcused.append(key)
    for size, where, name, label in sorted(missed, reverse=True):
        print(f"{size:5d}  {where}  {name}  {label}".rstrip())
    print(f"\nnever entered: {len(missed)} functions, {missed_lines} of "
          f"{total} function-body lines "
          f"({100.0 * missed_lines / max(total, 1):.1f}%)")
    if not check:
        return False
    if unexcused:
        print("\nnever entered, neither exempt nor in KEEP (delete it, give "
              "it a program caller, or KEEP it with a reason):\n  "
              + "\n  ".join(unexcused))
    if stale:
        print("\nKEEP entries entered or gone:\n  "
              + "\n  ".join(sorted(stale)))
    return bool(unexcused or stale)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--keep", metavar="DIR",
        help="collect into DIR and leave it there, so several commands "
             "add up (default: a temporary directory)")
    parser.add_argument(
        "--report-only", action="store_true",
        help="run nothing; report what --keep DIR already holds")
    parser.add_argument(
        "command", nargs="*",
        help="the command to trace (default: the program paths, and the "
             "check)")
    args = parser.parse_args(argv)
    if args.report_only and not args.keep:
        parser.error("--report-only needs --keep DIR")
    commands = [args.command] if args.command else PROGRAM_PATHS
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(args.keep or scratch)
        out_dir.mkdir(parents=True, exist_ok=True)
        failed = [] if args.report_only else run_traced(commands, out_dir)
        broken = report(out_dir, check=not args.command)
    for command, status, label in failed:
        print(f"\nexit {status} ({label}): {command}")
    if args.command:
        return failed[0][1] if failed else 0
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
