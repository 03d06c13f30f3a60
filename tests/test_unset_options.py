"""Unset-option lint: every option ``src/repro`` offers, the program sets.

An option, in ``src/repro`` outside ``models/`` and ``datasets/``, is

* a parameter of a class's ``__init__`` that has a default, or a field
  of a frozen dataclass that has one (``Class.option``);
* a parameter with a default of a module-level function, or of a method
  of a module-level class other than a dunder (``function.option``,
  ``Class.method.option``; prefixed with the module's name where two
  modules define the same one, though a call, matched by name, sets
  both).

``name``, ``seed`` and ``registry`` are identity and plumbing, not
behaviour, and records (``*Stats``, ``Query``, ``QueryRecord``,
``JournalState``) are ledgers, not settings.  An ``ast`` walk over the
program (``src/``, ``benchmarks/``, ``examples/``, ``tools/``) counts an
option as set when a call binds it - a function's or method's call
matched by its callee's last name, as a class's is:

* by keyword or by position, or by name in ``replace`` /
  ``with_overrides``; a name several callables share binds only those
  the call's arguments fit, and by position only where all of them
  name the same parameter (an override and what it overrides);
* through a helper that forwards it, either its own defaulted
  parameter handed on by name (``per_replica_cache_factory``) or its
  ``**kwargs`` handed on whole (``cli._fleet_spec``) - set only when a
  call sets the helper's;
* through ``cls(...)`` in a classmethod, ``super().__init__`` in a
  subclass, a subclass that inherits the constructor, or a class taken
  from a module-level table (``benchmarks/test_table1_models.py``);
* through a dict splatted into the call, by a string key of a dict
  literal in the same module (``stack.SCALE_SIGNALS``).

Two rules:

* Every option is set by the program, or ``KEEP`` names it with the
  reason it stays.  Any other option nobody sets is a constant that
  doubles the configurations a test must cover: make it one, and
  delete the code only its other values reached.
* ``KEEP`` names only options that exist and are unset.
"""

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
OUT_OF_SCOPE = [SRC / "models", SRC / "datasets"]
PROGRAM = [REPO / "src", REPO / "benchmarks", REPO / "examples",
           REPO / "tools"]
NOT_OPTIONS = {"name", "seed", "registry"}
RECORDS = re.compile(r"Stats$|^Query$|^QueryRecord$|^JournalState$")

#: Options no program caller sets, and why each stays: (a) a deployment
#: setting, (b) a safety bound the docs tell a user to set, (c) a knob a
#: pinned contract or property grid varies against a shipped oracle,
#: (d) an entry point's argument.
KEEP = {
    "NetworkSUT.reconnect_backoff":
        "(a) pause before redialling a lost server",
    "NetworkSUT.max_attempts":
        "(a) sends of one query before it fails; the ledger contract "
        "runs it at 1",
    "ServerConfig.bind_retries": "(a) how often to retry a busy port",
    "ServerConfig.bind_backoff": "(a) pause between tries for a busy port",
    "RunJournal.fsync_interval":
        "(a) records between fsyncs: durability against write cost",
    "RunJournal.checkpoint_period":
        "(a) how much a crash may cost to replay; the ledger contract "
        "runs it at 0.05 s",
    "RetryPolicy.total_timeout":
        "(b) caps a query's retries below the watchdog",
    "SelfHealingSUT.total_timeout":
        "(b) caps a query's healing below the watchdog",
    "ParallelSUT.job_timeout":
        "(b) how long a batch may sit in a hung worker",
    "WorkerPool.job_timeout":
        "(b) how long a batch may sit in a hung worker",
    "RetryPolicy.jitter":
        "(c) the deadline contract's grid runs both 'full' and 'none'",
    "SimulatedSUT.preferred_batch":
        "(c) the simulated contract varies it against the shipped engine",
    "ReplicaSet.max_reroutes":
        "(c) the deadline and wrapper contracts vary it",
    "ReplicaSet.breaker_policy":
        "(c) the deadline and wrapper contracts vary it",
    "ReplicaSet.latency_window":
        "(c) the outlier properties need 32 samples: at the default "
        "128 a healed replica still holds gray latencies when the run "
        "ends, and their liveness check fails",
    "OutlierPolicy.max_ejection_fraction":
        "(c) the outlier properties check the cap over a range of "
        "fractions",
    "ChannelModel.reorder_rate":
        "(c) the wrapper and ledger contracts' lossy channels draw from "
        "it and pin the digests",
    "resume_run.fsync_interval":
        "(a) records between fsyncs, as RunJournal's",
    "resume_run.checkpoint_period":
        "(a) how much a crash may cost to replay, as RunJournal's",
    "NetworkSUT.close.timeout":
        "(b) bounds the wait for the server's last stats and each "
        "reader's join",
    "InferenceServer.stop.timeout":
        "(b) bounds the drain and every join of a shutdown",
    "EventLoop.run.until":
        "(c) the event-loop model test steps the loop against its "
        "reference model to chosen instants",
    "main.argv": "(d) 'repro' reads sys.argv; tests and embedders pass "
                 "their own",
}


def _parse(roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _name_of(node):
    """The last name of ``node`` (``a.b.C`` -> ``C``), a call's callee's."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", None)


def _dataclass(cls):
    """``None`` if ``cls`` is no dataclass, else whether it is frozen."""
    for decorator in cls.decorator_list:
        if _name_of(decorator) == "dataclass":
            return isinstance(decorator, ast.Call) and any(
                k.arg == "frozen" and getattr(k.value, "value", False)
                for k in decorator.keywords)
    return None


def _fields(cls):
    """``(name, has_default)`` of a dataclass body's fields."""
    for node in cls.body:
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and "ClassVar" not in ast.unparse(node.annotation)):
            default = node.value is not None and not (
                _name_of(node.value) == "field"
                and not any(k.arg in ("default", "default_factory")
                            for k in node.value.keywords))
            yield node.target.id, default


def _in_scope(path):
    return SRC in path.parents and not any(
        root in path.parents for root in OUT_OF_SCOPE)


def _method(member):
    """A method's signature: ``self`` or ``cls`` is bound unless it is a
    staticmethod."""
    return _Signature.of(member.name, member, not any(
        _name_of(d) == "staticmethod" for d in member.decorator_list))


def _functions(tree):
    """``(qualname, signature)`` of a module's functions and its
    classes' methods, dunders aside."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("__")):
                    yield f"{node.name}.{member.name}", _method(member)
        elif (isinstance(node, ast.FunctionDef)
              and not node.name.startswith("__")):
            yield node.name, _Signature.of(node.name, node, bound=False)


def _init(cls):
    return next((node for node in cls.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "__init__"), None)


class _Signature:
    """What a call to one callable binds: its positional parameters in
    order, the ones with a default, its ``**kwargs``, and the class that
    owns each field (a dataclass inherits its bases')."""

    def __init__(self, key, positional=(), defaulted=(), varkw=None,
                 varargs=False):
        self.key = key
        self.positional = list(positional)
        self.defaulted = set(defaulted)
        self.varkw = varkw
        self.varargs = varargs
        self.owner = {}

    @classmethod
    def of(cls, key, fn, bound):
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if bound:
            positional = positional[1:]
        defaulted = (positional[len(positional) - len(args.defaults):]
                     if args.defaults else [])
        defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults) if d]
        return cls(key, positional, defaulted,
                   args.kwarg.arg if args.kwarg else None,
                   args.vararg is not None)

    def names(self):
        return set(self.positional) | self.defaulted

    def fits(self, args, keywords):
        """Whether a call's arguments could bind here: no more
        positional ones than it takes, no keyword it lacks."""
        if any(isinstance(arg, ast.Starred) for arg in args) or any(
                keyword.arg is None for keyword in keywords):
            return True
        return ((self.varargs or len(args) <= len(self.positional))
                and (self.varkw is not None or all(
                    keyword.arg in self.names() for keyword in keywords)))

    def owner_of(self, param):
        return self.owner.get(param, self.key), param


class _Program:
    """The classes of ``src/repro``, the callables of the program, and
    which of their parameters some call sets or hands on."""

    def __init__(self, modules):
        self.classes = {}
        self.functions = defaultdict(list)
        #: ``(path, qualname, signature)`` of every function and method
        #: in scope.
        self.callables = []
        for path, tree in modules:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    if SRC in path.parents:
                        self.classes.setdefault(node.name, (path, node))
                    for member in node.body:
                        if (isinstance(member, ast.FunctionDef)
                                and member.name != "__init__"):
                            self.functions[member.name].append(
                                _method(member))
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.functions[node.name].append(
                        _Signature.of(node.name, node, bound=False))
            if _in_scope(path):
                self.callables += [(path, qualname, signature) for
                                   qualname, signature in _functions(tree)]
        self._constructors = {}
        #: ``(callable, parameter)`` pairs some call gives a value.
        self.set = set()
        #: ``(callable, parameter)`` -> the pairs it is handed on to.
        self.edges = defaultdict(set)
        #: callable -> the signatures its ``**kwargs`` is handed on to.
        self.splats = defaultdict(set)
        #: callable -> its named parameters (the rest go to ``**kwargs``).
        self.named = defaultdict(set)
        for _, tree in modules:
            tables = {_name_of(n) for stmt in tree.body
                      if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                      for n in ast.walk(stmt)
                      if isinstance(n, (ast.Name, ast.Attribute))
                      and _name_of(n) in self.classes}
            keys = {k.value for n in ast.walk(tree) if isinstance(n, ast.Dict)
                    for k in n.keys if isinstance(k, ast.Constant)
                    and isinstance(k.value, str)}
            _Calls(self, tables, keys).visit(tree)

    def constructor(self, name):
        """The signature a call to class ``name`` binds, or ``None``."""
        if name not in self._constructors:
            self._constructors[name] = self._constructor(name)
        return self._constructors[name]

    def _constructor(self, name):
        if name not in self.classes:
            return None
        _, cls = self.classes[name]
        init = _init(cls)
        if init is not None:
            return _Signature.of(name, init, bound=True)
        bases = [self.constructor(_name_of(b)) for b in cls.bases]
        if _dataclass(cls) is None:
            return next((base for base in bases if base is not None), None)
        signature = _Signature(name)
        for base in bases:
            if base is not None and base.owner:
                signature.positional += base.positional
                signature.defaulted |= base.defaulted
                signature.owner.update(base.owner)
        for field, default in _fields(cls):
            signature.positional.append(field)
            signature.owner[field] = name
            if default:
                signature.defaulted.add(field)
        return signature

    def options(self):
        """``Owner.option`` -> the ``callable.option`` a call must set,
        for every option in scope."""
        options = {}
        for name, (path, cls) in self.classes.items():
            if not _in_scope(path) or RECORDS.search(name):
                continue
            init = _init(cls)
            if init is not None:
                owned = _Signature.of(name, init, bound=True).defaulted
            elif _dataclass(cls):
                owned = {f for f, default in _fields(cls) if default}
            else:
                continue
            for option in sorted(owned - NOT_OPTIONS):
                options[f"{name}.{option}"] = f"{name}.{option}"
        owners = defaultdict(list)
        for path, qualname, signature in self.callables:
            owners[qualname].append((path, signature))
        for qualname, defined in owners.items():
            for path, signature in defined:
                owner = (qualname if len(defined) == 1
                         else f"{path.stem}.{qualname}")
                for option in sorted(signature.defaulted - NOT_OPTIONS):
                    options[f"{owner}.{option}"] = (
                        f"{signature.key}.{option}")
        return options

    def resolved(self):
        """``Class.option`` of every parameter some call really sets."""
        done, todo = set(), list(self.set)
        while todo:
            node = todo.pop()
            if node in done:
                continue
            done.add(node)
            todo.extend(self.edges[node])
            key, param = node
            if param not in self.named[key]:
                todo.extend(target.owner_of(param)
                            for target in self.splats[key])
        return {f"{key}.{param}" for key, param in done}


class _Calls(ast.NodeVisitor):
    """One module's calls, each bound to the callables it may reach."""

    def __init__(self, program, tables, dict_keys):
        self.program = program
        self.tables = tables
        self.dict_keys = dict_keys
        self.stack = []  # (function node, its signature, its class)
        self.classes = []

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        cls = (self.classes[-1] if self.classes
               and node in self.classes[-1].body else None)
        key = cls.name if cls and node.name == "__init__" else node.name
        signature = _Signature.of(key, node, bound=cls is not None)
        self.program.named[key] |= signature.names()
        self.stack.append((node, signature, cls))
        self.generic_visit(node)
        self.stack.pop()

    def _locals(self):
        """Parameters and assigned names of the enclosing functions."""
        names = set()
        for fn, _, _ in self.stack:
            names |= {a.arg for a in ast.walk(fn.args)
                      if isinstance(a, ast.arg)}
            names |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
        return names

    def _targets(self, call):
        """``(signature, positional args)`` of what ``call`` may reach.

        A name several callables share binds only the ones the call's
        arguments fit.  Where more than one fits, a position binds only
        while every one names the same parameter there (an override and
        the method it overrides); past that, keywords alone bind."""
        func, args = call.func, call.args
        if _name_of(func) == "partial" and args:
            func, args = args[0], args[1:]
        name = _name_of(func)
        program = self.program
        cls = self.stack[-1][2] if self.stack else None
        if name == "__init__":  # super().__init__(...) or Base.__init__
            if _name_of(func.value) == "super":
                bases = cls.bases if cls is not None else []
            else:
                bases, args = [func.value], args[1:]
            signatures = [program.constructor(_name_of(b)) for b in bases]
            signatures = [s for s in signatures if s is not None][:1]
        elif name == "cls" and cls is not None:
            signatures = [program.constructor(cls.name)]
        elif name in program.classes:
            signatures = [program.constructor(name)]
        elif name in program.functions:
            signatures = program.functions[name]
            if len(signatures) > 1:
                signatures = [s for s in signatures
                              if s.fits(args, call.keywords)]
                agreed = 0
                while agreed < len(args) and len({
                        tuple(s.positional[agreed:agreed + 1])
                        for s in signatures}) == 1:
                    agreed += 1
                args = args[:agreed]
        elif isinstance(func, ast.Name) and name in self._locals():
            signatures = [program.constructor(t) for t in sorted(self.tables)]
        else:
            signatures = []
        return [(s, args) for s in signatures if s is not None]

    def _forwarder(self, value):
        """``(callable, parameter)`` when ``value`` is a defaulted
        parameter of an enclosing function (a closure's too)."""
        if isinstance(value, ast.Name):
            for _, signature, _ in reversed(self.stack):
                if value.id in signature.defaulted:
                    return signature.key, value.id
        return None

    def visit_Call(self, node):
        self.generic_visit(node)
        program = self.program
        source = self.stack[-1][1] if self.stack else None
        if _name_of(node.func) in ("replace", "with_overrides"):
            for keyword in node.keywords:
                for name in program.classes:
                    signature = program.constructor(name)
                    if signature and keyword.arg in signature.defaulted:
                        program.set.add(signature.owner_of(keyword.arg))
        for signature, args in self._targets(node):
            bound = []
            for position, arg in enumerate(args):
                if (isinstance(arg, ast.Starred)
                        or position >= len(signature.positional)):
                    break
                bound.append((signature.positional[position], arg))
            for keyword in node.keywords:
                if keyword.arg:
                    bound.append((keyword.arg, keyword.value))
                elif (source is not None and source.varkw
                      and _name_of(keyword.value) == source.varkw):
                    program.splats[source.key].add(signature)
                else:
                    bound += [(key, None) for key in self.dict_keys
                              if signature.varkw or key in signature.names()]
            for param, value in bound:
                forwarder = self._forwarder(value)
                if forwarder is None:
                    program.set.add(signature.owner_of(param))
                else:
                    program.edges[forwarder].add(signature.owner_of(param))


@functools.lru_cache(maxsize=None)
def _scan():
    program = _Program(list(_parse(PROGRAM)))
    return program.options(), program.resolved()


def unset_options():
    options, resolved = _scan()
    return sorted(option for option, key in options.items()
                  if key not in resolved)


def test_an_option_is_set_through_helpers_tables_and_splats():
    program = _Program([(SRC / "snippet.py", ast.parse('''
class Inner:
    def __init__(self, depth=1, width=2, height=3, mode="a", spare=0):
        pass

def helper(depth=1, **rest):
    return Inner(depth=depth, **rest)

TABLE = [Inner]

def table_driven(kind):
    return kind(height=4)

MODES = {"mode": "b"}

helper(width=3)
Inner(**MODES)
'''))])
    options = program.options()
    resolved = program.resolved()
    assert set(options) == {"Inner.depth", "Inner.width", "Inner.height",
                            "Inner.mode", "Inner.spare", "helper.depth"}
    assert {o for o, key in options.items() if key not in resolved} == {
        "Inner.depth", "Inner.spare", "helper.depth"}


def test_a_function_option_is_set_by_a_call_to_its_last_name():
    program = _Program([(SRC / "one.py", ast.parse('''
class Engine:
    def __init__(self, rate=1):
        pass

    def __repr__(self, verbose=False):
        return ""

    def run(self, steps=1, trace=False):
        def inner(depth=2):
            return depth
        return inner()

    @staticmethod
    def plan(budget=3, spread=4):
        return budget

def report(limit=40, width=80):
    return limit

def shared(knob=1):
    return knob
''')), (SRC / "two.py", ast.parse('''
def shared(knob=1):
    return knob

def caller(engine):
    engine.run(5)
    Engine.plan(1, spread=2)
    report(width=100)
'''))])
    options = program.options()
    resolved = program.resolved()
    assert sorted(options) == [
        "Engine.plan.budget", "Engine.plan.spread", "Engine.rate",
        "Engine.run.steps", "Engine.run.trace", "one.shared.knob",
        "report.limit", "report.width", "two.shared.knob"]
    assert sorted(o for o, key in options.items() if key not in resolved) == [
        "Engine.rate", "Engine.run.trace", "one.shared.knob",
        "report.limit", "two.shared.knob"]


def test_a_shared_name_binds_by_position_only_where_its_callables_agree():
    program = _Program([(SRC / "snippet.py", ast.parse('''
class Loop:
    def run(self, until=None):
        pass

class Stack:
    def run(self, qsl, settings, trace=None):
        pass

class Runner:
    def run(self, tracer=None):
        pass

class Service:
    def start(self, loop, keep_going=None):
        pass

class Sampler(Service):
    def start(self, loop, keep_going=None):
        pass

def drive(stack, runner, service, tracer):
    stack.run(1, 2, tracer)
    runner.run(tracer)
    service.start(1, tracer)
'''))])
    options = program.options()
    resolved = program.resolved()
    assert sorted(options) == [
        "Loop.run.until", "Runner.run.tracer", "Sampler.start.keep_going",
        "Service.start.keep_going", "Stack.run.trace"]
    # Three arguments fit only Stack.run; one fits Loop.run and
    # Runner.run, which name it differently; both starts name theirs
    # alike.
    assert sorted(o for o, key in options.items() if key not in resolved) == [
        "Loop.run.until", "Runner.run.tracer"]


def test_every_option_is_set_by_the_program_or_kept():
    unexcused = [option for option in unset_options()
                 if option not in KEEP]
    assert not unexcused, (
        "options in src/repro that no program caller sets (make each a "
        "constant and delete what it gates, or KEEP it with a reason):\n"
        + "\n".join(unexcused))


def test_keep_names_only_options_that_exist_and_are_unset():
    stale = sorted(set(KEEP) - set(unset_options()))
    assert not stale, ("KEEP names options that are gone or now set:\n"
                       + "\n".join(stale))
