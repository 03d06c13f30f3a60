"""``SutBase`` forwards ``flush`` and ``close`` down ``inners``."""

from repro.core.events import EventLoop
from repro.core.sut import SutBase
from repro.durability import SelfHealingSUT
from repro.faults import ResilientSUT
from repro.streaming import StreamingSUT


class Owner(SutBase):
    """A backend owning something: counts how often it is released."""

    def __init__(self, name="owner"):
        super().__init__(name)
        self.closes = 0
        self.flushes = 0

    def close(self):
        self.closes += 1

    def flush(self):
        self.flushes += 1


class Bare:
    """Protocol-only SUT: no ``close`` at all."""

    name = "bare"

    def start_run(self, loop, responder):
        pass

    def issue_query(self, query):
        pass

    def flush(self):
        pass


def test_closing_the_top_of_a_stack_closes_the_bottom_exactly_once():
    owner = Owner()
    stack = ResilientSUT(SelfHealingSUT(StreamingSUT(owner)))
    stack.close()
    stack.close()
    assert owner.closes == 1


def test_close_reaches_every_inner_and_skips_those_without_one():
    primary, standby = Owner("primary"), Bare()
    stack = ResilientSUT(SelfHealingSUT(primary, standby))
    stack.close()
    assert primary.closes == 1


def test_a_new_run_makes_the_stack_closable_again():
    owner = Owner()
    stack = ResilientSUT(StreamingSUT(owner))
    stack.close()
    stack.start_run(EventLoop(), lambda query, responses: None)
    stack.close()
    assert owner.closes == 2


def test_flush_walks_the_same_path():
    primary, standby = Owner("primary"), Owner("standby")
    stack = ResilientSUT(SelfHealingSUT(StreamingSUT(primary), standby))
    stack.flush()
    assert (primary.flushes, standby.flushes) == (1, 1)
