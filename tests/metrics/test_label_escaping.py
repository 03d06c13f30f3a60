"""Label values and help text are escaped as the exposition format
requires: a quote, a backslash or a newline in a value must not break
the line it is printed on, nor the snapshot key built from it."""

import re

from repro.metrics import MetricsRegistry, capture, to_prometheus_text
from repro.metrics.registry import series_key

NASTY = 'a"b\nc\\d'

_SERIES = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)')
_UNESCAPE = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def unescape(text):
    return re.sub(r'\\[\\"n]', lambda m: _UNESCAPE[m.group()], text)


def parse_series(line):
    """``name{k="v",...} value`` as a scraper reads it."""
    match = _SERIES.match(line)
    assert match, f"unparseable exposition line: {line!r}"
    name, inner, value = match.groups()
    labels = {}
    if inner:
        assert "".join(m.group() for m in _LABEL.finditer(inner)) == inner
        labels = {k: unescape(v) for k, v in _LABEL.findall(inner)}
    return name, labels, float(value)


def nasty_registry():
    reg = MetricsRegistry()
    family = reg.counter("odd_total", 'help with \\ and a\nnewline and "',
                         labels=("kind",))
    family.labels(kind=NASTY).inc(2)
    family.labels(kind="plain").inc()
    reg.histogram("odd_seconds", labels=("kind",)).labels(
        kind=NASTY).observe(0.5)
    return reg


def test_a_nasty_label_value_round_trips_as_one_line_per_series():
    lines = to_prometheus_text(nasty_registry()).split("\n")
    assert lines.pop() == ""  # the text ends with its last newline
    series = [parse_series(line) for line in lines
              if not line.startswith("#")]
    assert [s for s in series if s[0] == "odd_total"] == [
        ("odd_total", {"kind": NASTY}, 2.0),
        ("odd_total", {"kind": "plain"}, 1.0)]
    buckets = [s for s in series if s[0] == "odd_seconds_bucket"]
    assert [labels["kind"] for _, labels, _ in buckets] == [NASTY, NASTY]
    assert buckets[-1][1]["le"] == "+Inf"
    assert ("odd_seconds_count", {"kind": NASTY}, 1.0) in series


def test_help_text_stays_on_its_line():
    lines = to_prometheus_text(nasty_registry()).split("\n")
    help_line, = [line for line in lines if line.startswith("# HELP odd_total")]
    escaped = help_line[len("# HELP odd_total "):]
    assert escaped == 'help with \\\\ and a\\nnewline and "'
    assert unescape(escaped) == 'help with \\ and a\nnewline and "'


def test_snapshot_keys_are_the_escaped_keys_built_at_creation():
    snap = capture(nasty_registry(), time=0.0)
    key = 'odd_total{kind="a\\"b\\nc\\\\d"}'
    assert snap.values[key] == 2.0
    assert key == series_key("odd_total", {"kind": NASTY})
    assert "\n" not in "".join(snap.values)
    assert parse_series(f"{key} 2")[1] == {"kind": NASTY}


def test_ordinary_values_are_written_as_before():
    assert series_key("lb_routed_total", {"replica": "3"}) == \
        'lb_routed_total{replica="3"}'
    assert series_key("x", {"a": "single-stream", "b": "it's {fine}, ok=1"}) \
        == 'x{a="single-stream",b="it\'s {fine}, ok=1"}'
    assert series_key("x", {}) == "x"
