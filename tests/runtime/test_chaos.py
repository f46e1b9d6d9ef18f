"""Deterministic chaos: pure plans, and faulted runs == clean runs.

The end-to-end tests drive real fork pools with a ChaosPolicy
installed, so work units must be module-level (picklable by
reference).  Seed/rate pairs used here are pinned to combinations
verified to actually kill something — see the plan-determinism tests.
"""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import TaskScheduler, map_tasks, use_scheduler
from repro.runtime import chaos as chaos_module
from repro.runtime.cache import reset_cache
from repro.runtime.chaos import ChaosAction, ChaosConfig, ChaosPolicy
from repro.runtime.scheduler import installed_hooks, task_hooks
from repro.sanitize import diff_ledgers, sanitize
from repro.utils.rng import RngFactory


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


@pytest.fixture()
def no_ambient_policy():
    """Guarantee no hook is installed before and after each test."""
    assert installed_hooks() == ()
    yield
    assert installed_hooks() == ()


def _unit(payload):
    """A science unit: draws from content-keyed streams, like the suite."""
    rng = RngFactory(payload["seed"]).stream(f"rep{payload['rep']}")
    return float(rng.random(4).sum()) + float(rng.integers(0, 100))


def _payloads(count=9, seed=123):
    return [{"seed": seed, "rep": rep} for rep in range(count)]


def _killing_policy(kill_rate=0.25, seed=0, **overrides):
    policy = ChaosPolicy(
        ChaosConfig(kill_rate=kill_rate, seed=seed, **overrides)
    )
    assert policy.preview(len(_payloads()))["kills"], (
        "test seed/rate must actually kill — re-pin via 'repro chaos plan'"
    )
    return policy


class TestPlan:
    def test_plan_is_deterministic_and_pure(self):
        a = ChaosPolicy(ChaosConfig(kill_rate=0.3, delay_rate=0.3, seed=42))
        b = ChaosPolicy(ChaosConfig(kill_rate=0.3, delay_rate=0.3, seed=42))
        for index in range(20):
            for attempt in range(3):
                assert a.plan(index, attempt) == b.plan(index, attempt)
        # Repeated calls on ONE policy are stable too (no stream state).
        assert a.plan(5, 0) == a.plan(5, 0)

    def test_plan_is_independent_of_query_order(self):
        policy = ChaosPolicy(ChaosConfig(kill_rate=0.5, seed=7))
        forward = [policy.plan(i, 0) for i in range(10)]
        fresh = ChaosPolicy(ChaosConfig(kill_rate=0.5, seed=7))
        backward = [fresh.plan(i, 0) for i in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_different_seeds_give_different_plans(self):
        count = 64
        a = ChaosPolicy(ChaosConfig(kill_rate=0.5, seed=1)).preview(count)
        b = ChaosPolicy(ChaosConfig(kill_rate=0.5, seed=2)).preview(count)
        assert a != b

    def test_faults_are_quiet_past_the_per_task_budget(self):
        policy = ChaosPolicy(ChaosConfig(kill_rate=1.0, faults_per_task=1))
        assert policy.plan(0, 0).kill
        assert policy.plan(0, 1).quiet
        eager = ChaosPolicy(ChaosConfig(kill_rate=1.0, faults_per_task=2))
        assert eager.plan(0, 1).kill
        assert eager.plan(0, 2).quiet

    def test_zero_faults_per_task_disables_injection(self):
        policy = ChaosPolicy(ChaosConfig(kill_rate=1.0, faults_per_task=0))
        assert policy.preview(10) == {"kills": [], "delays": []}

    def test_preview_reports_kills_and_delays(self):
        policy = ChaosPolicy(
            ChaosConfig(kill_rate=1.0, delay_rate=1.0, delay_s=0.01)
        )
        plan = policy.preview(3)
        assert plan["kills"] == [0, 1, 2]
        assert plan["delays"] == [0, 1, 2]

    def test_planning_never_perturbs_science_streams(self):
        """Chaos entropy is quarantined in the isolated "faults" fork:
        however much the policy draws, science streams replay exactly."""
        baseline = RngFactory(5).stream("workload").random(8).tolist()
        policy = ChaosPolicy(ChaosConfig(kill_rate=0.5, seed=5))
        factory = RngFactory(5)
        policy.preview(25)  # interleave heavy chaos planning
        replayed = factory.stream("workload").random(8).tolist()
        assert replayed == baseline


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("kill_rate", -0.1),
        ("kill_rate", 1.5),
        ("delay_rate", 2.0),
        ("delay_s", -1.0),
        ("faults_per_task", -1),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ChaosPolicy(ChaosConfig(**{field: value}))

    def test_action_quiet(self):
        assert ChaosAction().quiet
        assert not ChaosAction(kill=True).quiet
        assert not ChaosAction(delay_s=0.01).quiet


class TestChaosUnderThePool:
    def run_clean_serial(self):
        with TaskScheduler(1) as scheduler, use_scheduler(scheduler):
            return scheduler.map(_unit, _payloads())

    def test_killed_workers_retry_to_clean_values(self, no_ambient_policy):
        expected = self.run_clean_serial()
        with task_hooks(_killing_policy()), TaskScheduler(
            2, max_retries=5, retry_backoff_s=0.01
        ) as scheduler, use_scheduler(scheduler):
            values = map_tasks(_unit, _payloads())
        assert values == expected
        assert scheduler.retry_stats()["retries"] >= 1

    def test_delays_are_injected_and_counted(self, no_ambient_policy):
        expected = self.run_clean_serial()
        before = chaos_module.delays_total()
        policy = ChaosPolicy(ChaosConfig(delay_rate=1.0, delay_s=0.01, seed=0))
        with task_hooks(policy), TaskScheduler(
            2, retry_backoff_s=0.01
        ) as scheduler, use_scheduler(scheduler):
            values = map_tasks(_unit, _payloads())
        assert values == expected
        # Worker-local bumps rode back as counter deltas and were absorbed.
        assert chaos_module.delays_total() - before == len(_payloads())

    def test_chaotic_ledger_matches_clean_serial_ledger(
        self, no_ambient_policy
    ):
        with sanitize() as clean_state:
            clean_values = self.run_clean_serial()

        with task_hooks(_killing_policy()), sanitize() as chaos_state:
            with TaskScheduler(
                2, max_retries=5, retry_backoff_s=0.01
            ) as scheduler, use_scheduler(scheduler):
                chaotic_values = map_tasks(_unit, _payloads())

        assert chaotic_values == clean_values
        assert scheduler.retry_stats()["retries"] >= 1
        result = diff_ledgers(clean_state.ledger, chaos_state.ledger)
        assert result.clean, "\n" + "\n".join(
            d.describe() for d in result.divergences
        )
