"""Tests for the pluggable steering-policy layer (``repro.policies``).

Covers the refactor-parity lock (default policy byte-identical to the
pre-seam pipeline across worker counts and shard topologies), the three
shipped policies end-to-end, the counterfactual machinery over any
policy, off-policy estimator hardening, and the telemetry surfacing.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import QOAdvisor, SimulationConfig
from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.bandit.offpolicy import (
    LoggedEvent,
    dr_estimate,
    ips_estimate,
    snips_estimate,
)
from repro.config import (
    BanditConfig,
    ExecutionConfig,
    FlightingConfig,
    PolicyConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.core.recommend import RecommendationTask
from repro.errors import PersonalizerError, ValidationError
from repro.policies import (
    BanditSteeringPolicy,
    PlanGuidedPolicy,
    SteeringPolicy,
    ValueModelPolicy,
    build_policy,
)
from repro.policies.plan_guided import plan_summary

# ---------------------------------------------------------------------------
# the refactor-parity lock
# ---------------------------------------------------------------------------

# Golden day reports captured on the pre-refactor pipeline (commit
# 7557f21, seed 555, 10 templates / 8 tables, deterministic flighting,
# simulate(0, 3, learned_after=1)).  The policy seam must keep the default
# configuration byte-identical to these — at any worker count and shard
# topology.  If a deliberate behavior change invalidates them, recapture
# on the commit introducing the change and say so in its message.
GOLDEN_FINGERPRINTS = [
    "3b03d01cbd8cae26b5015b7ca20e4122",
    "2cfb8272f6cbd69ff4b42319fbf5ae87",
    "b822419e84fd6bad9115d4d68cc314cc",
]
GOLDEN_CORES = [
    (20, 84, 0, 0, 84, 9, 2),
    (11, 18, 0, 84, 18, 9, 0),
    (11, 18, 0, 18, 18, 9, 2),
]

# Golden day reports of the two competitor policies on the same run,
# captured before their scoring and SGD step were routed through the
# bandit learner's shared ``linear_score`` / ``ips_sgd_step``; that
# refactor (and the featurization memos) must keep them byte-identical.
COMPETITOR_GOLDENS = {
    "value_model": (
        [
            "4be1bb236f8211f40529d16adcb0edad",
            "68aec6221cacb6c556c00519b468df3d",
            "458b446ccd01e8c87acea3364d04a7ee",
        ],
        [
            (19, 86, 0, 0, 86, 9, 1),
            (3, 12, 0, 86, 12, 9, 0),
            (2, 9, 0, 12, 9, 9, 0),
        ],
    ),
    "plan_guided": (
        [
            "6362ea5598714b74898c5e604c9c4d19",
            "50b1bd542a60a9a6c02d29ddab250c52",
            "b1fc46bb0c917d478a4a5db342f3a806",
        ],
        [
            (22, 85, 0, 0, 85, 9, 1),
            (19, 18, 0, 85, 18, 9, 0),
            (18, 18, 0, 18, 18, 9, 1),
        ],
    ),
}


def _tiny_config(workers=1, shards=1, seed=555, policy=None):
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=workers),
        sharding=ShardingConfig(shards=shards),
        policy=policy or PolicyConfig(),
    )


def _simulate(config, days=3, learned_after=1):
    with QOAdvisor(config) as advisor:
        reports = advisor.simulate(0, days, learned_after=learned_after)
        return advisor, reports


@pytest.mark.parametrize(
    "workers,shards", [(1, 1), (4, 1), (1, 2)], ids=["serial", "workers4", "sharded"]
)
def test_default_policy_matches_pre_refactor_golden(workers, shards):
    _, reports = _simulate(_tiny_config(workers=workers, shards=shards))
    assert [r.fingerprint() for r in reports] == GOLDEN_FINGERPRINTS
    assert [r.cache_stats.core() for r in reports] == GOLDEN_CORES


@pytest.mark.parametrize("name", sorted(COMPETITOR_GOLDENS))
def test_competitor_policies_match_golden(name):
    _, reports = _simulate(_tiny_config(policy=PolicyConfig(name=name)))
    fingerprints, cores = COMPETITOR_GOLDENS[name]
    assert [r.fingerprint() for r in reports] == fingerprints
    assert [r.cache_stats.core() for r in reports] == cores


def test_default_policy_is_the_bandit():
    advisor, reports = _simulate(_tiny_config())
    assert isinstance(advisor.policy, BanditSteeringPolicy)
    assert advisor.pipeline.policy is advisor.policy
    assert advisor.pipeline.recommend_task.policy is advisor.policy
    assert advisor.policy.mode == "learned"
    assert reports[-1].policy_name == "bandit"
    assert reports[-1].policy_version == len(advisor.policy.versions)


def test_policy_telemetry_is_outside_the_fingerprint():
    _, reports = _simulate(_tiny_config())
    report = reports[-1]
    before = report.fingerprint()
    report.policy_name = "something_else"
    report.policy_version = 99
    assert report.fingerprint() == before


# ---------------------------------------------------------------------------
# the three policies end-to-end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bandit", "value_model", "plan_guided"])
def test_policy_runs_end_to_end_and_feeds_counterfactuals(name):
    config = _tiny_config(policy=PolicyConfig(name=name))
    advisor, reports = _simulate(config)
    policy = advisor.policy
    assert isinstance(policy, SteeringPolicy)
    assert reports[-1].policy_name == name
    assert reports[-1].policy_version == policy.model_version > 0
    log = policy.event_log
    assert log, "every policy must produce a counterfactual-ready log"
    # the off-policy machinery accepts any policy exposing action_probability
    estimates = {
        "ips": ips_estimate(log, policy),
        "snips": snips_estimate(log, policy),
        "dr": dr_estimate(log, policy, lambda context, action: 1.0),
    }
    for key, value in estimates.items():
        assert np.isfinite(value), (key, value)
    assert estimates["snips"] > 0.0


@pytest.mark.parametrize("name", ["value_model", "plan_guided"])
def test_learned_policies_are_deterministic_across_workers(name):
    fingerprints = []
    for workers in (1, 4):
        config = _tiny_config(workers=workers, policy=PolicyConfig(name=name))
        _, reports = _simulate(config)
        fingerprints.append([r.fingerprint() for r in reports])
    assert fingerprints[0] == fingerprints[1]


def test_plan_guided_policy_scores_from_the_plan_cache():
    # In uniform-logging mode the chosen actions depend only on the policy
    # RNG stream, so a run with plan peeks enabled and one with them
    # unavailable make identical decisions — if peeking were ever to
    # compile or touch a counter, the two cache accountings would diverge.
    results = []
    for bind_engine in (True, False):
        config = _tiny_config(policy=PolicyConfig(name="plan_guided"))
        with QOAdvisor(config) as advisor:
            if not bind_engine:
                advisor.policy.engine = None  # force the context-only path
            report = advisor.run_day(0)
            results.append(
                (report.fingerprint(), report.cache_stats.core(), advisor.policy)
            )
    (fp_peek, core_peek, with_peek), (fp_blind, core_blind, blind) = results
    assert with_peek.plan_feature_hits > 0  # plans were resident and read
    assert with_peek.plan_feature_misses == 0
    assert blind.plan_feature_hits == 0
    assert fp_peek == fp_blind
    assert core_peek == core_blind


def test_peek_job_result_is_counter_free():
    config = _tiny_config()
    with QOAdvisor(config) as advisor:
        job = advisor.workload.jobs_for_day(0)[0]
        assert advisor.engine.peek_job_result(job) is None  # cold: no compile
        before = advisor.engine.compilation.stats.snapshot()
        assert (advisor.engine.compilation.stats - before).core() == (
            0, 0, 0, 0, 0, 0, 0,
        )
        result = advisor.engine.compile_job(job)
        mid = advisor.engine.compilation.stats.snapshot()
        peeked = advisor.engine.peek_job_result(job)
        assert peeked is result
        assert (advisor.engine.compilation.stats - mid).core() == (
            0, 0, 0, 0, 0, 0, 0,
        )


# ---------------------------------------------------------------------------
# policy unit behavior
# ---------------------------------------------------------------------------


def _context(span=(3, 5), cost=100.0):
    return ContextFeatures(span=tuple(span), estimated_cost=cost)


def _actions():
    return [
        ActionFeatures(rule_id=None),
        ActionFeatures(rule_id=3, turn_on=False, category="transformation"),
        ActionFeatures(rule_id=5, turn_on=False, category="implementation"),
    ]


# The bandit's rank/observe/publish/restore/expiry stream, captured on the
# commit before the bandit became a LearnedSteeringPolicy subclass (when it
# was an adapter over a standalone Personalizer-style service).  Event ids,
# chosen indices, logged probabilities, the weights + updates digest at each
# checkpoint and the expiry count must stay byte-identical: day-report
# fingerprints are built from this stream.
BANDIT_STREAM_GOLDEN = {
    "trace": [
        ("evt-00000001", 2, 1 / 3),
        ("evt-00000002", 1, 1 / 3),
        ("evt-00000003", 1, 1 / 3),
        ("evt-00000004", 2, 1 / 3),
        ("evt-00000005", 2, 1 / 3),
        ("evt-00000006", 0, 1 / 3),
        ("evt-00000007", 2, 0.9),
        ("evt-00000008", 2, 0.9),
        ("evt-00000009", 2, 0.9),
        ("evt-00000010", 2, 0.9),
        ("evt-00000011", 2, 0.9),
        ("evt-00000012", 2, 0.9),
        ("evt-00000013", 0, 0.049999999999999996),
        ("evt-00000014", 2, 0.9),
        ("evt-00000015", 2, 0.9),
    ],
    # published v1, published v2, restored to v1
    "digests": [
        "31476fa1012727aa80b539e62952938e",
        "cd94aa2cae9746a155e5f26eafcb0f3b",
        "31476fa1012727aa80b539e62952938e",
    ],
    "expired_events": 1,
    "rewards": [1.5, 1.35, 1.6, 1.5, 1.1, 1.5, 1.6, 1.5, 1.6, 1.5, 1.6, 0.0, 0.5, 0.5, 0.5],
}


def test_bandit_stream_matches_golden():
    policy = BanditSteeringPolicy(BanditConfig(activation_timeout_days=2), seed=9)
    contexts = [_context(), _context(span=(1, 2, 7), cost=12.5)]
    trace = []
    digests = []

    def digest():
        h = hashlib.blake2b(digest_size=16)
        h.update(policy.learner.weights.tobytes())
        h.update(str(policy.learner.updates).encode())
        return h.hexdigest()

    def rank(i):
        response = policy.rank(contexts[i % 2], _actions())
        trace.append((response.event_id, response.index, response.probability))
        return response

    def reward(i, response):
        return 1.0 + 0.25 * response.index + 0.1 * (i % 2)

    for i in range(6):  # uniform logging; the third event is never rewarded
        response = rank(i)
        if i != 2:
            policy.observe(response.event_id, reward(i, response))
    first = policy.publish_version()
    digests.append(digest())
    policy.switch_mode("learned")
    for i in range(6, 12):
        response = rank(i)
        policy.observe(response.event_id, reward(i, response))
    policy.publish_version()  # tick 2: the unrewarded event expires first
    digests.append(digest())
    expired = policy.expired_events
    for i in range(12, 15):
        policy.observe(rank(i).event_id, 0.5)
    policy.restore_version(first)
    digests.append(digest())
    assert trace == BANDIT_STREAM_GOLDEN["trace"]
    assert digests == BANDIT_STREAM_GOLDEN["digests"]
    assert expired == BANDIT_STREAM_GOLDEN["expired_events"]
    assert [e.reward for e in policy.event_log] == BANDIT_STREAM_GOLDEN["rewards"]


def test_value_model_learns_per_action_rewards():
    policy = ValueModelPolicy(epsilon=0.0, seed=1, mode="learned")
    actions = _actions()
    # teach it: action 1 pays 2.0, others pay 0.5 (via uniform exploration)
    policy.switch_mode("uniform_logging")
    for _ in range(60):
        response = policy.rank(_context(), actions)
        policy.observe(response.event_id, 2.0 if response.index == 1 else 0.5)
    policy.publish_version()  # refit cadence
    policy.switch_mode("learned")
    response = policy.rank(_context(), actions)
    assert response.index == 1
    assert response.probability == pytest.approx(1.0)  # epsilon 0, greedy
    assert policy.action_probability(_context(), actions, 1) == pytest.approx(1.0)
    assert policy.action_probability(_context(), actions, 0) == pytest.approx(0.0)


def test_value_model_snapshot_restore_roundtrip():
    policy = ValueModelPolicy(epsilon=0.1, seed=2)
    actions = _actions()
    for _ in range(30):
        response = policy.rank(_context(), actions)
        policy.observe(response.event_id, float(response.index))
    version = policy.publish_version()
    scores_at_publish = policy._scores(_context(), actions, None).tolist()
    for _ in range(30):
        response = policy.rank(_context(), actions)
        policy.observe(response.event_id, 2.0 - response.index)
    policy.publish_version()
    policy.restore_version(version)
    assert policy._scores(_context(), actions, None).tolist() == scores_at_publish
    with pytest.raises(PersonalizerError):
        policy.restore_version(999)


def test_plan_guided_falls_back_without_an_engine():
    policy = PlanGuidedPolicy(engine=None, epsilon=0.0, seed=3, mode="learned")
    actions = _actions()
    scores = policy._scores(_context(), actions, None)
    assert len(scores) == len(actions)
    response = policy.rank(_context(), actions)  # no job: context-only path
    policy.observe(response.event_id, 1.5)
    assert policy.updates == 1
    assert policy.event_log[0].reward == 1.5


def test_plan_summary_reads_plan_structure():
    config = _tiny_config()
    with QOAdvisor(config) as advisor:
        job = advisor.workload.jobs_for_day(0)[0]
        result = advisor.engine.compile_job(job)
        summary = plan_summary(result)
        assert summary["nodes"] >= 1
        assert summary["depth"] >= 1
        assert summary["est_cost"] == result.est_cost


def test_learned_policy_mode_and_event_guards():
    policy = ValueModelPolicy(seed=4)
    with pytest.raises(PersonalizerError):
        policy.switch_mode("bogus")
    with pytest.raises(PersonalizerError):
        policy.observe("no-such-event", 1.0)
    with pytest.raises(PersonalizerError):
        policy.rank(_context(), [])
    with pytest.raises(PersonalizerError):
        ValueModelPolicy(epsilon=1.5)


def test_build_policy_factory_and_wrapping():
    config = SimulationConfig()
    assert isinstance(build_policy(config), BanditSteeringPolicy)
    assert isinstance(
        build_policy(dataclasses.replace(config, policy=PolicyConfig("value_model"))),
        ValueModelPolicy,
    )
    plan = build_policy(
        dataclasses.replace(config, policy=PolicyConfig("plan_guided")), engine="E"
    )
    assert isinstance(plan, PlanGuidedPolicy) and plan.engine == "E"
    with pytest.raises(ValidationError):
        build_policy(dataclasses.replace(config, policy=PolicyConfig("nope")))
    # the recommend stage holds the built policy itself, unwrapped
    from repro.scope.optimizer.rules.base import default_registry

    bandit = build_policy(config)
    assert bandit.config is config.bandit
    task = RecommendationTask(bandit, default_registry())
    assert task.policy is bandit


# ---------------------------------------------------------------------------
# estimator hardening
# ---------------------------------------------------------------------------


def _event(probability=0.5, actions=None, chosen=0, reward=1.0):
    acts = _actions() if actions is None else actions
    return LoggedEvent(
        context=_context(),
        actions=tuple(acts),
        chosen=chosen,
        probability=probability,
        reward=reward,
    )


class _UniformTestPolicy:
    def action_probability(self, context, actions, index, scorer=None):
        return 1.0 / len(actions)


@pytest.mark.parametrize(
    "estimate",
    [
        ips_estimate,
        snips_estimate,
        lambda events, policy: dr_estimate(events, policy, lambda c, a: 0.0),
    ],
    ids=["ips", "snips", "dr"],
)
def test_estimators_survive_degenerate_logs(estimate):
    policy = _UniformTestPolicy()
    assert estimate([], policy) == 0.0
    # zero / negative propensity rows are skipped, not divided by
    assert estimate([_event(probability=0.0)], policy) == 0.0
    assert estimate([_event(probability=-1.0)], policy) == 0.0
    # empty action sets and out-of-range chosen indices are skipped too
    assert estimate([_event(actions=[])], policy) == 0.0
    assert estimate([_event(chosen=17)], policy) == 0.0
    # a degenerate row must not poison the usable ones
    mixed = [_event(probability=0.0), _event(probability=1.0 / 3.0, reward=1.5)]
    clean = [_event(probability=1.0 / 3.0, reward=1.5)]
    assert estimate(mixed, policy) == pytest.approx(estimate(clean, policy))
    assert estimate(clean, policy) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# serving surface
# ---------------------------------------------------------------------------


def test_server_stats_surface_the_active_policy():
    from repro.serving import QOAdvisorServer

    config = dataclasses.replace(_tiny_config(), policy=PolicyConfig("value_model"))
    server = QOAdvisorServer(config=config)
    try:
        stats = server.stats()
        assert stats.policy_name == "value_model"
        assert stats.policy_version == server.advisor.policy.model_version
        assert "policy value_model v" in stats.render()
    finally:
        server.shutdown()
