"""Multi-turn hang regression: a lost turn must not wedge the run.

If turn N's answer never arrives, turn N+1 is never issued - so the
session's event chain simply stops.  The watchdog must classify the
stuck run, the harness must terminate, and validation must name the
stalled session explicitly (outstanding-query counts alone understate
the damage: every unissued later turn is also lost).
"""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase

from tests.conftest import EchoQSL

pytestmark = pytest.mark.sessions


class DropOneTurnSUT(SutBase):
    """Swallows exactly one chosen turn; answers everything else."""

    def __init__(self, drop_session: int, drop_turn: int) -> None:
        super().__init__("drop-one-turn")
        self.drop_session = drop_session
        self.drop_turn = drop_turn
        self.dropped = 0

    def issue_query(self, query) -> None:
        turn = query.session
        if (turn is not None and turn.session_id == self.drop_session
                and turn.turn_index == self.drop_turn):
            self.dropped += 1
            return  # never respond: the classic lost-completion hang
        responses = [
            QuerySampleResponse(s.id, s.index) for s in query.samples
        ]
        self.loop.schedule_after(
            0.001, lambda: self.complete(query, responses))


def hang_settings(**overrides):
    base = dict(
        scenario=Scenario.SESSION, server_target_qps=200.0,
        session_count=12, session_think_time_mean=0.02,
        min_duration=0.0, watchdog_timeout=5.0, seed=9)
    base.update(overrides)
    return TestSettings(**base)


def test_lost_turn_is_classified_not_wedged():
    sut = DropOneTurnSUT(drop_session=4, drop_turn=1)
    result = run_benchmark(sut, EchoQSL(), hang_settings())
    # The run terminated (we got a result back at all) via the watchdog.
    assert sut.dropped == 1
    assert result.stats.watchdog_fired
    assert not result.valid
    details = result.validity.details
    assert details["sessions_stalled"] == 1
    assert result.stats.sessions_started == 12
    assert result.stats.sessions_completed == 11
    assert result.stats.sessions_aborted == 0
    assert any("1 sessions stalled mid-conversation" in reason
               for reason in result.validity.reasons)
    # Exactly one query outstanding: the dropped turn.  Its successors
    # were never issued, which is the point of the stalled-session rule.
    assert result.log.outstanding == 1
    stuck = result.log.outstanding_records()[0]
    assert stuck.query.session.session_id == 4
    assert stuck.query.session.turn_index == 1


def test_later_turns_are_never_issued_after_the_loss():
    sut = DropOneTurnSUT(drop_session=4, drop_turn=1)
    result = run_benchmark(sut, EchoQSL(), hang_settings())
    issued_turns = sorted(
        r.query.session.turn_index for r in result.log.records()
        if r.query.session.session_id == 4)
    assert issued_turns == [0, 1]


def test_unaffected_sessions_still_complete():
    sut = DropOneTurnSUT(drop_session=4, drop_turn=1)
    result = run_benchmark(sut, EchoQSL(), hang_settings())
    session = result.metrics.session
    assert session is not None
    assert session.completed_session_count == 11
