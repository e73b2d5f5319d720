"""Learning layer: reward models, bandit routers, feedback, determinism."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.experiments.batch import BatchRunner, RunSpec
from repro.fleet import (
    FleetScenario,
    FleetSimulation,
    make_routing_policy,
    routing_policy_names,
    simulate_fleet,
    static_routing_policy_names,
)
from repro.learn import (
    ArmStats,
    EpsilonGreedy,
    LearnConfig,
    LearningReport,
    RejectPenaltyReward,
    RoutingFeedback,
    SlackWeightedReward,
    ThompsonSampling,
    UCB1,
    UtilizationWeightedReward,
    learning_policy_names,
    make_reward_model,
    reward_model_names,
)
from repro.learn.feedback import PHASE_ADMISSION
from tests.test_fleet import DOCUMENTED_FLEET, small_fleet

BANDITS = learning_policy_names()
STATIC = static_routing_policy_names()

#: The example horizon from examples/adaptive_routing.py: the documented
#: 4-cluster spread-0.8 fleet run long enough for the bandits to converge.
EXAMPLE_FLEET = dict(DOCUMENTED_FLEET, total_time=400_000.0)


def feedback(**overrides) -> RoutingFeedback:
    """Terse feedback factory for reward-model unit tests."""
    base = dict(
        task_id=0,
        cluster=0,
        phase="admission",
        arrival=100.0,
        sigma=200.0,
        deadline=1_000.0,
        accepted=True,
    )
    base.update(overrides)
    return RoutingFeedback(**base)


class TestRegistry:
    def test_bandits_registered_alongside_static(self):
        names = routing_policy_names()
        for bandit in ("epsilon-greedy", "ucb1", "thompson"):
            assert bandit in names
        for static in STATIC:
            assert static in names

    def test_static_names_exclude_bandits(self):
        assert not set(BANDITS) & set(STATIC)

    def test_reward_model_names(self):
        assert reward_model_names() == (
            "reject-penalty",
            "slack-weighted",
            "utilization-weighted",
        )

    def test_make_reward_model_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            make_reward_model("no-such-reward")

    def test_make_routing_policy_builds_seeded_bandit(self):
        policy = make_routing_policy(
            "thompson",
            learn=LearnConfig(arms=("round-robin",)),
            learning_rng=np.random.default_rng(7),
        )
        assert isinstance(policy, ThompsonSampling)
        assert policy.learns
        assert policy.config.arms == ("round-robin",)


class TestLearnConfig:
    def test_defaults_valid(self):
        cfg = LearnConfig()
        assert cfg.resolved_arms() == STATIC

    def test_rejects_unknown_arm(self):
        with pytest.raises(InvalidParameterError):
            LearnConfig(arms=("no-such-policy",))

    def test_rejects_bandit_arm(self):
        with pytest.raises(InvalidParameterError):
            LearnConfig(arms=("ucb1",))

    def test_rejects_duplicate_arms(self):
        with pytest.raises(InvalidParameterError):
            LearnConfig(arms=("round-robin", "round-robin"))

    def test_rejects_arms_in_clusters_mode(self):
        with pytest.raises(InvalidParameterError):
            LearnConfig(mode="clusters", arms=("round-robin",))

    def test_rejects_bad_knobs(self):
        with pytest.raises(InvalidParameterError):
            LearnConfig(epsilon=1.5)
        with pytest.raises(InvalidParameterError):
            LearnConfig(ucb_c=0.0)
        with pytest.raises(InvalidParameterError):
            LearnConfig(mode="no-such-mode")
        with pytest.raises(InvalidParameterError):
            LearnConfig(reward="no-such-reward")

    def test_picklable_in_scenario(self):
        import pickle

        fs = small_fleet("ucb1").with_learn(LearnConfig(arms=("round-robin",)))
        assert pickle.loads(pickle.dumps(fs)) == fs

    def test_scenario_rejects_non_config(self):
        with pytest.raises(InvalidParameterError):
            small_fleet().with_learn("reject-penalty")  # type: ignore[arg-type]


class TestRewardModels:
    def test_reject_penalty_resolves_at_admission(self):
        model = RejectPenaltyReward()
        assert model.reward(feedback(accepted=True)) == 1.0
        assert model.reward(feedback(accepted=False)) == 0.0

    def test_slack_weighted_defers_until_completion(self):
        model = SlackWeightedReward()
        assert model.reward(feedback(accepted=False)) == 0.0
        assert model.reward(feedback(accepted=True)) is None  # waits
        half = model.reward(
            feedback(
                phase="completion",
                actual_completion=600.0,  # slack 500 of a 1000 window
                deadline_met=True,
            )
        )
        assert half == pytest.approx(0.75)
        instant = model.reward(
            feedback(phase="completion", actual_completion=100.0, deadline_met=True)
        )
        assert instant == pytest.approx(1.0)
        missed = model.reward(
            feedback(phase="completion", actual_completion=2_000.0, deadline_met=False)
        )
        assert missed == 0.0

    def test_utilization_weighted_discounts_backlog(self):
        model = UtilizationWeightedReward()
        assert model.reward(feedback(accepted=False)) == 0.0
        idle = model.reward(feedback(backlog=0.0))
        deep = model.reward(feedback(backlog=1_000.0))  # one deadline window
        assert idle == pytest.approx(1.0)
        assert deep == pytest.approx(0.5)
        assert model.reward(feedback(backlog=10_000.0)) < deep


class TestSelectionRules:
    def _resolve(self, policy, arm: int, reward: float, task_id: int) -> None:
        policy._pending[task_id] = arm
        policy.observe(
            feedback(task_id=task_id, accepted=reward > 0.0)
        )

    def test_ucb1_sweeps_arms_then_exploits(self):
        policy = UCB1(config=LearnConfig(arms=("round-robin", "least-loaded")))
        policy._ensure_arms(2)
        assert policy.select_arm() == 0  # unpulled arms first, index order
        self._resolve(policy, 0, 1.0, task_id=0)
        assert policy.select_arm() == 1
        self._resolve(policy, 1, 0.0, task_id=1)
        # arm 0 resolved 1.0 vs arm 1 resolved 0.0 -> exploit arm 0
        assert policy.select_arm() == 0

    def test_epsilon_zero_is_greedy_and_deterministic(self):
        policy = EpsilonGreedy(
            config=LearnConfig(arms=("round-robin", "least-loaded"), epsilon=0.0),
            rng=np.random.default_rng(1),
        )
        policy._ensure_arms(2)
        assert policy.select_arm() == 0  # optimistic sweep, index order
        self._resolve(policy, 0, 0.0, task_id=0)
        assert policy.select_arm() == 1
        self._resolve(policy, 1, 1.0, task_id=1)
        assert policy.select_arm() == 1  # greedy on the better mean

    def test_thompson_is_seeded(self):
        def picks(seed):
            policy = ThompsonSampling(
                config=LearnConfig(), rng=np.random.default_rng(seed)
            )
            policy._ensure_arms(4)
            return [policy.select_arm() for _ in range(20)]

        assert picks(5) == picks(5)

    def test_delayed_rewards_spread_cold_start_pulls(self):
        """With completion-phase rewards, the sweep must not hammer arm 0.

        Before any reward resolves (slack-weighted defers accepted tasks
        to completion), consecutive decisions must spread over the
        data-less arms by fewest in-flight pulls instead of repeatedly
        pulling the lowest index.
        """
        policy = UCB1(
            config=LearnConfig(
                arms=("round-robin", "least-loaded", "earliest-finish"),
                reward="slack-weighted",
            )
        )
        policy._ensure_arms(3)
        picks = []
        for task_id in range(6):
            arm = policy.select_arm()
            policy._pending[task_id] = arm
            policy._inflight[arm] += 1
            picks.append(arm)
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_unresolved_feedback_keeps_pending(self):
        policy = UCB1(config=LearnConfig(reward="slack-weighted"))
        policy._ensure_arms(2)
        policy._pending[7] = 0
        policy.observe(feedback(task_id=7, accepted=True))  # defers
        assert 7 in policy._pending
        policy.observe(
            feedback(
                task_id=7,
                phase="completion",
                actual_completion=500.0,
                deadline_met=True,
            )
        )
        assert 7 not in policy._pending
        assert policy.report().resolved == 1


class TestLearningReport:
    def test_regret_is_hindsight_pseudo_regret(self):
        report = LearningReport(
            policy="ucb1",
            reward_model="reject-penalty",
            arms=(
                ArmStats(name="a", pulls=8, total_reward=8.0),  # mean 1.0
                ArmStats(name="b", pulls=2, total_reward=1.0),  # mean 0.5
            ),
            decisions=10,
            resolved=10,
        )
        assert report.best_arm == "a"
        assert report.cumulative_regret == pytest.approx(1.0)  # 10*1.0 - 9.0
        flat = report.as_dict()
        assert flat["pulls[a]"] == 8
        assert flat["mean_reward[b]"] == pytest.approx(0.5)

    def test_empty_report_is_zero(self):
        report = LearningReport(
            policy="ucb1", reward_model="reject-penalty", arms=(),
            decisions=0, resolved=0,
        )
        assert report.cumulative_regret == 0.0
        assert report.best_arm == ""


class TestFleetIntegration:
    @pytest.mark.parametrize("bandit", BANDITS)
    def test_bandit_runs_and_reports(self, bandit):
        out = simulate_fleet(small_fleet(bandit), "EDF-DLT")
        report = out.learning
        assert report is not None
        assert report.policy == bandit
        assert report.decisions == out.metrics.arrivals
        assert report.resolved == out.metrics.arrivals  # all rewards land
        assert report.cumulative_regret >= 0.0
        assert out.metrics.learning_regret == report.cumulative_regret

    def test_admission_feedback_reports_pre_submit_backlog(self):
        """The backlog in admission feedback is the one the router saw:
        read before the routed submission reserved nodes for the task."""
        scenario = small_fleet("thompson").with_learn(
            LearnConfig(reward="utilization-weighted")
        )
        fleet = FleetSimulation(scenario, "EDF-DLT")
        policy = fleet.policy
        seen: dict[int, float] = {}
        reported: dict[int, float] = {}
        route, observe = policy.route, policy.observe

        def spy_route(task, views):
            index = route(task, views)
            release = fleet.sims[index].scheduler.reservations.release_times
            over = np.maximum(release - task.arrival, 0.0)
            seen[task.task_id] = float(over.sum() / over.size)
            return index

        def spy_observe(fb):
            if fb.phase == PHASE_ADMISSION:
                reported[fb.task_id] = fb.backlog
            observe(fb)

        policy.route, policy.observe = spy_route, spy_observe
        for task in scenario.stream_scenario().generate_tasks():
            fleet.submit(task)
        assert reported == seen
        assert any(reported.values())

    def test_static_policy_has_no_learning(self):
        out = simulate_fleet(small_fleet("round-robin"), "EDF-DLT")
        assert out.learning is None
        assert out.metrics.learning_regret == 0.0

    @pytest.mark.parametrize("reward", reward_model_names())
    def test_every_reward_model_resolves_fully(self, reward):
        fs = small_fleet("thompson").with_learn(LearnConfig(reward=reward))
        out = simulate_fleet(fs, "EDF-DLT")
        assert out.learning is not None
        assert out.learning.reward_model == reward
        assert out.learning.resolved == out.metrics.arrivals

    def test_clusters_mode_arms_are_members(self):
        fs = small_fleet("ucb1").with_learn(LearnConfig(mode="clusters"))
        out = simulate_fleet(fs, "EDF-DLT")
        assert out.learning is not None
        assert [a.name for a in out.learning.arms] == ["cluster-0", "cluster-1"]
        assert sum(a.pulls for a in out.learning.arms) == out.metrics.arrivals

    def test_learning_regret_reaches_batch_exports(self):
        fs = small_fleet("epsilon-greedy")
        [record] = BatchRunner().run([RunSpec(scenario=fs, algorithm="EDF-DLT")])
        row = record.to_dict()
        assert "learning_regret" in row
        assert record.value("learning_regret") >= 0.0

    def test_learn_config_reaches_describe(self):
        fs = small_fleet("ucb1").with_learn(LearnConfig(arms=("round-robin",)))
        d = fs.describe()
        assert d["learn_arms"] == "round-robin"
        assert d["learn_reward"] == "reject-penalty"
        for value in d.values():
            assert isinstance(value, (int, float, str))


class TestPinnedArmParity:
    """A single-arm bandit must replay the static policy, record by record.

    Same spirit as the 1-cluster fleet equivalence check: the learning
    layer may add bookkeeping, but a pinned bandit's routing decisions —
    including the stochastic ``random-weighted`` arm's draws — are the
    static policy's, bit for bit.
    """

    @pytest.mark.parametrize("arm", STATIC)
    @pytest.mark.parametrize("bandit", BANDITS)
    def test_pinned_bandit_matches_static(self, bandit, arm):
        base = small_fleet()
        pinned = base.with_policy(bandit).with_learn(LearnConfig(arms=(arm,)))
        bandit_out = simulate_fleet(pinned, "EDF-DLT")
        static_out = simulate_fleet(base.with_policy(arm), "EDF-DLT")

        assert bandit_out.assignments == static_out.assignments
        assert (
            replace(bandit_out.metrics, learning_regret=0.0)
            == static_out.metrics
        )
        for b_out, s_out in zip(bandit_out.outputs, static_out.outputs):
            assert list(b_out.records) == list(s_out.records)
            for tid in b_out.records:
                br, sr = b_out.records[tid], s_out.records[tid]
                assert br.outcome == sr.outcome
                assert br.est_completion == sr.est_completion
                assert br.actual_completion == sr.actual_completion
                assert br.node_ids == sr.node_ids
            assert np.array_equal(b_out.node_busy_time, s_out.node_busy_time)

    def test_single_arm_regret_is_zero(self):
        pinned = small_fleet("ucb1").with_learn(
            LearnConfig(arms=("earliest-finish",))
        )
        out = simulate_fleet(pinned, "EDF-DLT")
        assert out.metrics.learning_regret == 0.0


class TestConvergence:
    """The acceptance bar: bandits converge on the documented fleet.

    On the documented 4-cluster spread-0.8 configuration over the example
    horizon (examples/adaptive_routing.py), each bandit's reject ratio is
    at most the worst static policy's and within 10% of the best's.
    """

    @pytest.fixture(scope="class")
    def static_ratios(self):
        base = FleetScenario.uniform(**EXAMPLE_FLEET)
        return {
            policy: simulate_fleet(base.with_policy(policy), "EDF-DLT").reject_ratio
            for policy in STATIC
        }

    @pytest.mark.parametrize("bandit", BANDITS)
    def test_bandit_converges_to_best_static(self, bandit, static_ratios):
        base = FleetScenario.uniform(**EXAMPLE_FLEET)
        out = simulate_fleet(base.with_policy(bandit), "EDF-DLT")
        best = min(static_ratios.values())
        worst = max(static_ratios.values())
        assert out.reject_ratio <= worst, (
            f"{bandit} ({out.reject_ratio:.4f}) worse than the worst "
            f"static policy ({worst:.4f})"
        )
        assert out.reject_ratio <= best * 1.10, (
            f"{bandit} ({out.reject_ratio:.4f}) not within 10% of the "
            f"best static policy ({best:.4f})"
        )
        # The bandits should also identify the documented winner.
        assert out.learning is not None
        assert out.learning.best_arm == min(static_ratios, key=static_ratios.get)


# ---------------------------------------------------------------------------
# Property-based determinism (hypothesis)
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402  (gated import)

#: Small, fast learning-scenario space: breadth over policies, rewards,
#: modes and seeds — not scale.
learn_case_strategy = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(BANDITS),
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "n_clusters": st.integers(min_value=1, max_value=3),
        "reward": st.sampled_from(reward_model_names()),
        "mode": st.sampled_from(("policies", "clusters")),
    }
)


def _learn_scenario(case) -> FleetScenario:
    return FleetScenario.uniform(
        n_clusters=case["n_clusters"],
        system_load=0.7,
        total_time=15_000.0,
        seed=case["seed"],
        policy=case["policy"],
        nodes=4,
        cluster_spread=0.5,
        learn=LearnConfig(reward=case["reward"], mode=case["mode"]),
    )


@settings(max_examples=10, deadline=None)
@given(case=learn_case_strategy)
def test_learning_bit_identical_across_executor_modes(case):
    """Every repro.learn policy: serial == process == thread, bit for bit.

    The whole learning state (bandit draws, reward resolution order,
    regret) must derive from the fleet seed alone — the executor that
    happens to run the spec must not matter.
    """
    spec = RunSpec(
        scenario=_learn_scenario(case), algorithm="EDF-DLT", keep_output=True
    )
    serial = BatchRunner().run([spec, spec])
    process = BatchRunner(workers=2).run([spec, spec])
    thread = BatchRunner(workers=2, workers_mode="thread").run([spec, spec])
    assert serial.to_json() == process.to_json() == thread.to_json()
    reports = [
        rec.output.learning for rs in (serial, process, thread) for rec in rs
    ]
    assert all(r == reports[0] for r in reports)


@settings(max_examples=5, deadline=None)
@given(case=learn_case_strategy)
def test_learning_invariant_to_wall_clock(case):
    """Re-running the same learning spec later yields the identical run.

    Nothing in the learning path may read the wall clock: two executions
    of the same scenario at different real times must agree on every
    assignment, every arm statistic and every metric.
    """
    import time

    scenario = _learn_scenario(case)
    first = simulate_fleet(scenario, "EDF-DLT")
    time.sleep(0.01)  # a different wall-clock instant
    second = simulate_fleet(scenario, "EDF-DLT")
    assert first.assignments == second.assignments
    assert first.metrics == second.metrics
    assert first.learning == second.learning


class TestFaultAdaptation:
    """Satellite: bandits route around a flapping member; round-robin,
    being state-blind, keeps feeding it."""

    @staticmethod
    def _flapping_fleet() -> FleetScenario:
        """The documented 4-cluster fleet with member 0 flapping.

        Member 0 blacks out for [10k, 30k), [40k, 60k) and [70k, 90k) of
        the 100k horizon — down 60% of the run, so any policy that keeps
        routing there eats rejects.
        """
        from repro.faults import FaultEvent, FaultPlan

        plan = FaultPlan.from_events([
            FaultEvent(time=10_000.0, kind="blackout", duration=20_000.0, member=0),
            FaultEvent(time=40_000.0, kind="blackout", duration=20_000.0, member=0),
            FaultEvent(time=70_000.0, kind="blackout", duration=20_000.0, member=0),
        ])
        return FleetScenario.uniform(**DOCUMENTED_FLEET).with_faults(plan)

    @staticmethod
    def _pseudo_regret(out) -> float:
        """Hindsight pseudo-regret from routed/accepted counts alone.

        ``max_j(accept_rate_j) × total_routed − total_accepted`` — the
        same formula :class:`LearningReport` uses, computed externally so
        it applies to non-learning policies too.
        """
        routed = out.routed_counts
        accepted = [o.stats.accepted for o in out.outputs]
        best = max(a / r for a, r in zip(accepted, routed) if r)
        return best * sum(routed) - sum(accepted)

    @pytest.mark.parametrize("bandit", ["thompson", "ucb1"])
    def test_bandit_beats_round_robin_under_flapping(self, bandit):
        base = self._flapping_fleet()
        rr = simulate_fleet(base.with_policy("round-robin"), "EDF-DLT")
        learned = simulate_fleet(
            base.with_policy(bandit).with_learn(
                LearnConfig(mode="clusters", reward="reject-penalty")
            ),
            "EDF-DLT",
        )
        assert learned.learning is not None
        # in clusters mode with the admission-resolving reward the
        # report's regret IS the hindsight pseudo-regret
        assert learned.learning.cumulative_regret == pytest.approx(
            self._pseudo_regret(learned)
        )
        assert self._pseudo_regret(learned) < self._pseudo_regret(rr)

    def test_adaptation_is_deterministic(self):
        base = self._flapping_fleet().with_policy("thompson").with_learn(
            LearnConfig(mode="clusters", reward="reject-penalty")
        )
        first = simulate_fleet(base, "EDF-DLT")
        second = simulate_fleet(base, "EDF-DLT")
        assert first.assignments == second.assignments
        assert first.learning == second.learning
        assert first.metrics == second.metrics

    def test_fault_phase_feedback_is_ignored_by_reward_models(self):
        """PHASE_FAULT reports use negative task-id sentinels, so bandit
        per-task bookkeeping never confuses them with routed tasks."""
        policy = ThompsonSampling(
            config=LearnConfig(mode="clusters"),
            rng=np.random.default_rng(7),
            routing_rng=np.random.default_rng(8),
        )
        policy.observe(
            feedback(task_id=-1, phase="fault", accepted=False, sigma=0.0,
                     deadline=0.0)
        )
        report = policy.report()
        assert report.decisions == 0
        assert report.resolved == 0
