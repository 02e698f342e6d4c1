"""Contextual bandit tests: features, policies, learner, off-policy eval."""

import threading

import numpy as np
import pytest

from repro.bandit.features import (
    SPAN_BLOCK_MEMO_SIZE,
    ActionFeatures,
    ContextFeatures,
    FeatureVector,
    joint_features,
    span_block,
)
from repro.bandit.hashing import SLOT_MEMO_SIZE, feature_index
from repro.bandit.learner import CBLearner
from repro.bandit.offpolicy import LoggedEvent, dr_estimate, ips_estimate, snips_estimate
from repro.bandit.policy import EpsilonGreedyPolicy, UniformPolicy
from repro.rng import keyed_rng


def _context(span=(1, 2, 3)):
    return ContextFeatures(span=span, estimated_cost=100.0, row_count=1e6)


def test_feature_index_is_stable_and_bounded():
    index = feature_index("ns", "feat", 10)
    assert index == feature_index("ns", "feat", 10)
    assert 0 <= index < 1024


def test_context_features_include_cooccurrence_orders():
    vector = FeatureVector(bits=18)
    _context((1, 2, 3)).write_into(vector, interaction_order=3)
    # 3 singles + 3 pairs + 1 triple + numeric buckets
    assert len(vector) >= 3 + 3 + 1 + 4


def test_interaction_order_limits_features():
    vector2 = FeatureVector(bits=18)
    _context((1, 2, 3)).write_into(vector2, interaction_order=1)
    vector3 = FeatureVector(bits=18)
    _context((1, 2, 3)).write_into(vector3, interaction_order=3)
    assert len(vector3) > len(vector2)


def test_context_features_require_an_empty_vector():
    vector = FeatureVector(bits=18)
    ActionFeatures(rule_id=None).write_into(vector)
    with pytest.raises(ValueError, match="empty vector"):
        _context().write_into(vector)


def test_joint_features_cross_span_with_action():
    joint = joint_features(_context(), ActionFeatures(rule_id=2, turn_on=True), bits=18)
    noop = joint_features(_context(), ActionFeatures(rule_id=None), bits=18)
    assert len(joint) > len(noop)


def test_memoized_featurization_is_thread_safe_and_bounded():
    # more distinct spans and slot names than either memo holds, so the
    # four threads race on misses, hits and evictions at once
    contexts = [
        ContextFeatures(
            span=tuple(sorted(keyed_rng(7, i).choice(40, size=6, replace=False).tolist())),
            estimated_cost=float(i),
        )
        for i in range(SPAN_BLOCK_MEMO_SIZE + 16)
    ]
    actions = [ActionFeatures(rule_id=None)] + [
        ActionFeatures(rule_id=r, turn_on=True) for r in range(0, 40, 7)
    ]
    names = [f"n{i}" for i in range(SLOT_MEMO_SIZE + 512)]

    def featurize():
        vectors = [
            list(joint_features(context, action, bits=12).values.items())
            for context in contexts
            for action in actions
        ]
        slots = [feature_index("stress", name, 12) for name in names]
        return vectors, slots

    start = threading.Barrier(4)
    results = [None] * 4

    def worker(slot):
        start.wait()
        results[slot] = featurize()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    span_block.cache_clear()
    feature_index.cache_clear()
    serial = featurize()
    assert all(result == serial for result in results)
    for memo in (span_block, feature_index):
        info = memo.cache_info()
        assert info.currsize <= info.maxsize
    assert span_block.cache_info().currsize == SPAN_BLOCK_MEMO_SIZE
    assert feature_index.cache_info().currsize == SLOT_MEMO_SIZE


def test_uniform_policy_probability():
    policy = UniformPolicy()
    actions = [ActionFeatures(rule_id=None), ActionFeatures(rule_id=1)]
    for index in range(len(actions)):
        assert policy.action_probability(_context(), actions, index) == pytest.approx(0.5)


def test_epsilon_greedy_probabilities_sum_to_one():
    learner = CBLearner(bits=12)
    policy = EpsilonGreedyPolicy(epsilon=0.2, bits=12)
    actions = [ActionFeatures(rule_id=None)] + [
        ActionFeatures(rule_id=i, turn_on=True) for i in range(1, 5)
    ]
    probs = [
        policy.action_probability(_context(), actions, i, learner)
        for i in range(len(actions))
    ]
    assert sum(probs) == pytest.approx(1.0)
    assert max(probs) >= 0.8  # greedy mass


def test_learner_converges_to_action_rewards():
    learner = CBLearner(bits=16, learning_rate=0.2)
    context = _context()
    good = ActionFeatures(rule_id=1, turn_on=True)
    bad = ActionFeatures(rule_id=2, turn_on=False)
    for _ in range(300):
        learner.update(context, good, reward=1.5, probability=0.5)
        learner.update(context, bad, reward=0.5, probability=0.5)
    assert learner.score_action(context, good) > learner.score_action(context, bad)
    assert learner.score_action(context, good) == pytest.approx(1.5, abs=0.2)


def test_learner_snapshot_restore():
    learner = CBLearner(bits=10)
    learner.update(_context(), ActionFeatures(rule_id=1), 1.0, 0.5)
    snapshot = learner.snapshot()
    learner.update(_context(), ActionFeatures(rule_id=1), 5.0, 0.5)
    learner.restore(snapshot)
    assert np.array_equal(learner.weights, snapshot)


def test_learner_rejects_bad_snapshot():
    learner = CBLearner(bits=10)
    with pytest.raises(ValueError):
        learner.restore(np.zeros(7))


def _make_log(rng, rewards_by_action, n=600):
    actions = tuple(
        ActionFeatures(rule_id=i, turn_on=True) for i in range(len(rewards_by_action))
    )
    events = []
    for _ in range(n):
        chosen = int(rng.integers(0, len(actions)))
        events.append(
            LoggedEvent(
                context=_context(),
                actions=actions,
                chosen=chosen,
                probability=1.0 / len(actions),
                reward=rewards_by_action[chosen],
            )
        )
    return events


class _AlwaysAction:
    """Deterministic policy: always plays a fixed index."""

    def __init__(self, index):
        self.index = index

    def action_probability(self, context, actions, index, scorer=None):
        return 1.0 if index == self.index else 0.0


def test_ips_estimates_target_policy_value():
    rng = keyed_rng(3, "ips")
    events = _make_log(rng, rewards_by_action=[0.2, 1.0, 0.5])
    estimate = ips_estimate(events, _AlwaysAction(1))
    assert estimate == pytest.approx(1.0, abs=0.15)


def test_snips_lower_variance_same_target():
    rng = keyed_rng(4, "snips")
    events = _make_log(rng, rewards_by_action=[0.2, 1.0, 0.5])
    assert snips_estimate(events, _AlwaysAction(1)) == pytest.approx(1.0, abs=0.1)


def test_dr_estimate_with_zero_model_matches_ips():
    rng = keyed_rng(5, "dr")
    events = _make_log(rng, rewards_by_action=[0.3, 0.9], n=400)
    ips = ips_estimate(events, _AlwaysAction(0))
    dr = dr_estimate(events, _AlwaysAction(0), lambda c, a: 0.0)
    assert dr == pytest.approx(ips, abs=1e-9)


def test_estimators_empty_log():
    assert ips_estimate([], _AlwaysAction(0)) == 0.0
    assert snips_estimate([], _AlwaysAction(0)) == 0.0
