"""The session scenario driver: conversations, not independent queries.

``SessionDriver`` layers per-user conversation state machines on the
Server scenario's Poisson arrival loop.  *Sessions* arrive as a Poisson
process at ``server_target_qps`` (sessions per second); each session
then replays its planned conversation strictly in order - turn N+1 is
issued only after turn N's answer arrives plus the planned think time.
A turn that resolves as a failure aborts its session (the user gave up);
a turn that never resolves leaves the session *stalled*, which the
watchdog classifies instead of letting the run wedge - the
multi-turn-hang regression test pins this.

Bookkeeping the referee can audit: ``DriverStats`` gains
``sessions_started/completed/aborted``, and with a registry those
fields are what the ``session_*`` counters read (see
``docs/observability.md``).
The replay graph itself comes from :mod:`repro.sessions.replay` and is
a pure function of the seed.  See ``docs/sessions.md``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.config import Scenario
from ..core.query import Query
from ..core.scenarios import ArrivalGaps, ScenarioDriver
from ..metrics import export_ledger
from .replay import SessionPlan, SessionProfile


class _SessionState:
    """One in-flight conversation."""

    __slots__ = ("plan", "arrival_time", "next_turn")

    def __init__(self, plan: SessionPlan, arrival_time: float) -> None:
        self.plan = plan
        self.arrival_time = arrival_time
        self.next_turn = 0


class SessionDriver(ScenarioDriver):
    """Poisson session arrivals; strictly ordered turns within each."""

    scenario = Scenario.SESSION

    def __init__(self, *args, registry=None, **kwargs) -> None:
        super().__init__(*args, registry=registry, **kwargs)
        # Each plan is drawn when its session arrives and held only
        # while the session is active (``ReplayGraph`` would memoize
        # every one for as long as the driver lives).
        self._profile = SessionProfile.from_settings(self.settings)
        self._sessions = self.settings.resolved_session_count
        self._active: Dict[int, _SessionState] = {}
        self._arrived = 0
        # The Server scenario's arrival stream, here spacing sessions;
        # also disjoint from the per-user replay draws (which are keyed
        # by (seed, user_id, 0x5E55) in replay.py).
        self._gaps = ArrivalGaps(self.settings.seed)
        #: When the pending session arrival is due (one at a time); the
        #: next gap starts here, as in the Server scenario.
        self._due = 0.0
        #: Durations of completed conversations (``None``: no registry).
        self._duration = None
        if registry is not None:
            export_ledger(registry, lambda: self.stats)
            registry.counter(
                "session_turns_total",
                "Conversation turns issued across all sessions",
                fn=lambda: self.stats.issued_queries,  # every query is a turn
            )
            self._duration = registry.histogram(
                "session_duration_seconds",
                "Arrival-to-final-answer duration of completed conversations",
            ).labels()
            registry.gauge(
                "session_active",
                "Conversations started but not yet completed or aborted",
                fn=lambda: len(self._active),
            )

    # -- arrivals ------------------------------------------------------------

    def start(self) -> None:
        self._due = self.stats.start_time = self.loop.now
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        if self._arrived >= self._sessions:
            self._maybe_close()
            return
        gap = self._gaps.next() * (1.0 / self.settings.server_target_qps)
        self._due = due = self._due + gap
        self.loop.schedule(due, self._arrive)

    def _arrive(self) -> None:
        scheduled = self._due
        user_id = self._arrived
        self._arrived += 1
        state = _SessionState(self._profile.plan(user_id), self.loop.now)
        self._active[user_id] = state
        self.stats.sessions_started += 1
        self._issue_turn(state, scheduled_time=scheduled)
        self._schedule_next_arrival()

    # -- turns ---------------------------------------------------------------

    def _issue_turn(self, state: _SessionState,
                    scheduled_time: Optional[float] = None) -> None:
        indices = self.source.next(1)
        if indices is None:  # exhausted finite source: cannot continue
            self._abort_session(state.plan.user_id)
            return
        tag = state.plan.turn_tag(state.next_turn)
        state.next_turn += 1
        self._issue(indices, scheduled_time=scheduled_time, session=tag)

    def on_completion(self, query: Query) -> None:
        turn = query.session
        if turn is None:
            return
        state = self._active.get(turn.session_id)
        if state is None:
            return
        record = self.log.record_for(query.id)
        if record is not None and record.failed:
            # The user's turn was lost for good; the conversation ends.
            self._abort_session(turn.session_id)
            return
        turns = state.plan.turns
        if state.next_turn >= len(turns):
            self._complete_session(turn.session_id)
            return
        think = turns[state.next_turn].think_time
        self.loop.schedule_after(think, lambda: self._issue_turn(state))

    def _complete_session(self, user_id: int) -> None:
        state = self._active.pop(user_id)
        self.stats.sessions_completed += 1
        if self._duration is not None:
            self._duration.observe(self.loop.now - state.arrival_time)
        self._maybe_close()

    def _abort_session(self, user_id: int) -> None:
        self._active.pop(user_id, None)
        self.stats.sessions_aborted += 1
        self._maybe_close()

    def _maybe_close(self) -> None:
        if self._arrived >= self._sessions and not self._active:
            self._close_issue_phase()
