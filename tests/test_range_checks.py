"""Range-check lint: a numeric setting is checked by ``repro.bounds``.

An ``ast`` walk over ``src/repro`` looks in every constructor
(``__init__``, ``__post_init__`` and classmethods, the alternate
constructors) for a hand-written single-setting range check: an ``if``
whose test compares one setting - a parameter, a ``self.`` attribute or
a loop variable - with constants only, and whose body is a single
``raise ValueError``.  ``x is not None and <check>`` and ``<check> or
<check>`` count too.

Such a check is a second copy of :func:`repro.bounds.check_range`, and
it is the kind that lets NaN through (``x < 0`` is false for NaN) or
infinity (``x <= 0`` is false for ``inf``).  Relational checks (``high
> low``, a sum of rates at most 1) compare settings with each other and
stay hand-written; their operands have passed the helper first.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _constant(node):
    """A number, ``inf``, an ``UPPER_CASE`` name, or arithmetic on
    those."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float))
    if isinstance(node, ast.Name):
        return node.id == "inf" or node.id.isupper()
    if isinstance(node, ast.Attribute):
        return node.attr == "inf"
    if isinstance(node, ast.UnaryOp):
        return _constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _constant(node.left) and _constant(node.right)
    return False


def _setting(node, settings):
    """The setting ``node`` names: a parameter or loop variable in
    ``settings``, or ``self.<attr>``; else None."""
    if isinstance(node, ast.Name) and node.id in settings:
        return node.id
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return f"self.{node.attr}"
    return None


def _range_test(test, settings):
    """The setting a range test bounds, or None when ``test`` is not
    one."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _range_test(test.operand, settings)
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        found = [_range_test(value, settings) for value in test.values]
        return found[0] if all(found) else None
    if isinstance(test, ast.BoolOp) and len(test.values) == 2:
        guard, check = test.values
        if (isinstance(guard, ast.Compare)
                and isinstance(guard.ops[0], ast.IsNot)):
            name = _setting(guard.left, settings)
            return name if name == _range_test(check, settings) else None
        return None
    if not (isinstance(test, ast.Compare)
            and all(isinstance(op, _ORDER) for op in test.ops)):
        return None
    operands = [test.left, *test.comparators]
    bounded = [node for node in operands if not _constant(node)]
    if len(bounded) != 1:
        return None
    return _setting(bounded[0], settings)


def _raises_value_error(body):
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def _constructors(tree):
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and (
                    fn.name in ("__init__", "__post_init__")
                    or any(isinstance(d, ast.Name) and d.id == "classmethod"
                           for d in fn.decorator_list)):
                yield cls.name, fn


def hand_written_range_checks(source):
    """``(lineno, "Class.method", setting)`` of every hand-written
    single-setting range check in ``source``'s constructors."""
    for cls, fn in _constructors(ast.parse(source)):
        params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args,
                                  *fn.args.kwonlyargs)}
        loops = {name.id for node in ast.walk(fn)
                 if isinstance(node, (ast.For, ast.comprehension))
                 for name in ast.walk(node.target)
                 if isinstance(name, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, ast.If) and _raises_value_error(node.body):
                setting = _range_test(node.test, params | loops)
                if setting:
                    yield node.lineno, f"{cls}.{fn.name}", setting


def test_the_lint_sees_each_shape_of_range_check():
    snippet = '''
class Settings:
    def __init__(self, period, rates, cap=None):
        if period <= 0:
            raise ValueError("period")
        if not 0 < self.timeout < inf:
            raise ValueError("timeout")
        if cap is not None and cap < 1:
            raise ValueError("cap")
        if self.low < 0 or self.high < 0:
            raise ValueError("low/high")
        for rate in rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rate")
        total = sum(rates)
        if total > 1.0:
            raise ValueError("a sum, not a setting")
        if self.high <= self.low:
            raise ValueError("relational")
        if self.burst > 1 and self.scenario is not SERVER:
            raise ValueError("conditional")

    @classmethod
    def generate(cls, seed, *, replicas):
        if replicas < MIN_REPLICAS + 1:
            raise ValueError("replicas")

    def dispatch(self, cost):
        if cost < 0:
            raise ValueError("per-call, not a constructor")
'''
    found = [(method, setting) for _, method, setting
             in sorted(hand_written_range_checks(snippet))]
    assert found == [
        ("Settings.__init__", "period"),
        ("Settings.__init__", "self.timeout"),
        ("Settings.__init__", "cap"),
        ("Settings.__init__", "self.low"),
        ("Settings.__init__", "rate"),
        ("Settings.generate", "replicas"),
    ]


def test_no_constructor_range_checks_a_setting_by_hand():
    found = [f"{path.relative_to(SRC.parent.parent)}:{lineno} {method} "
             f"{setting}"
             for path in sorted(SRC.rglob("*.py"))
             for lineno, method, setting
             in hand_written_range_checks(path.read_text())]
    assert not found, (
        "range-check these settings with repro.bounds.check_range:\n"
        + "\n".join(found))
