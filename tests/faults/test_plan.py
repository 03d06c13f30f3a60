"""FaultPlan validation and FaultInjector determinism."""

import pytest

from repro.faults import (
    TRANSIENT_FAULTS,
    FaultInjector,
    FaultPlan,
    FaultType,
)


class TestPlanValidation:
    def test_empty_plan_is_fine(self):
        assert FaultPlan().rates == {}

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan(rates={FaultType.DROP: -0.1})

    def test_rate_above_one_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan(rates={FaultType.DROP: 1.5})

    def test_rates_summing_above_one_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(rates={FaultType.DROP: 0.6, FaultType.DELAY: 0.6})

    def test_non_fault_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan(rates={"drop": 0.1})

    def test_bad_delay_scale_rejected(self):
        with pytest.raises(ValueError, match="delay_scale"):
            FaultPlan(delay_scale=0.0)

    def test_single_constructor(self):
        plan = FaultPlan.single(FaultType.CORRUPT, 0.25)
        assert plan.rates == {FaultType.CORRUPT: 0.25}

    def test_uniform_constructor_covers_every_fault(self):
        plan = FaultPlan.uniform(0.01)
        assert set(plan.rates) == set(FaultType)

    def test_transient_constructor(self):
        plan = FaultPlan.transient(0.05)
        assert set(plan.rates) == set(TRANSIENT_FAULTS)

    def test_a_transient_plan_injects_only_transient_faults(self):
        injector = FaultInjector(FaultPlan.transient(0.2, seed=3))
        for qid in range(400):
            injector.decide(qid)
        assert set(injector.injected) == set(TRANSIENT_FAULTS)

    def test_a_zero_rate_fault_is_never_injected(self):
        plan = FaultPlan(rates={FaultType.DROP: 0.3, FaultType.STALL: 0.0})
        injector = FaultInjector(plan)
        for qid in range(400):
            injector.decide(qid)
        assert set(injector.injected) == {FaultType.DROP}


class TestInjectorDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan.uniform(0.05, seed=42)
        a, b = FaultInjector(plan), FaultInjector(plan)
        decisions_a = [a.decide(qid) for qid in range(500)]
        decisions_b = [b.decide(qid) for qid in range(500)]
        assert decisions_a == decisions_b
        assert a.trace == b.trace

    def test_decisions_independent_of_query_order(self):
        plan = FaultPlan.uniform(0.05, seed=7)
        forward = {qid: FaultInjector(plan).decide(qid) for qid in range(200)}
        backward_injector = FaultInjector(plan)
        backward = {
            qid: backward_injector.decide(qid)
            for qid in reversed(range(200))
        }
        assert forward == backward

    def test_different_seed_different_schedule(self):
        base = FaultPlan.uniform(0.1, seed=1)
        other = FaultPlan.uniform(0.1, seed=2)
        a = [FaultInjector(base).decide(q) for q in range(300)]
        b = [FaultInjector(other).decide(q) for q in range(300)]
        assert a != b

    def test_retry_attempt_gets_fresh_draw(self):
        plan = FaultPlan.single(FaultType.DROP, 0.5, seed=3)
        injector = FaultInjector(plan)
        first = [injector.decide(q, attempt=0) for q in range(100)]
        second = [injector.decide(q, attempt=1) for q in range(100)]
        assert first != second
        # At 50% some first-attempt drops must clear on retry.
        recovered = [
            q for q in range(100)
            if first[q] is not None and second[q] is None
        ]
        assert recovered

    def test_zero_rate_never_injects(self):
        injector = FaultInjector(FaultPlan())
        assert all(injector.decide(q) is None for q in range(100))
        assert injector.injected == {}

    def test_full_rate_always_injects(self):
        injector = FaultInjector(FaultPlan.single(FaultType.CORRUPT, 1.0))
        decisions = [injector.decide(q) for q in range(50)]
        assert all(d is not None and d.fault is FaultType.CORRUPT
                   for d in decisions)
        assert injector.injected[FaultType.CORRUPT] == 50

    def test_injection_count_tracks_rate(self):
        injector = FaultInjector(FaultPlan.single(FaultType.DROP, 0.2))
        for q in range(2000):
            injector.decide(q)
        count = injector.injected.get(FaultType.DROP, 0)
        assert 300 < count < 500  # ~400 expected; generous tolerance

    def test_delay_decision_carries_positive_delay(self):
        injector = FaultInjector(
            FaultPlan.single(FaultType.DELAY, 1.0, delay_scale=0.01))
        delays = [injector.decide(q).delay for q in range(100)]
        assert all(d > 0 for d in delays)
        assert 0.005 < sum(delays) / len(delays) < 0.02  # mean ~= scale

    def test_reset_clears_bookkeeping(self):
        injector = FaultInjector(FaultPlan.single(FaultType.DROP, 1.0))
        injector.decide(1)
        injector.reset()
        assert injector.injected == {}
        assert injector.trace == []

    def test_injected_counts_each_fault(self):
        injector = FaultInjector(FaultPlan.single(FaultType.DROP, 1.0))
        assert injector.injected == {}
        injector.decide(1)
        injector.decide(2)
        assert injector.injected == {FaultType.DROP: 2}
