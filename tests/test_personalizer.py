"""Personalizer service tests: rank/reward, modes, versioning, CFE."""

import pytest

from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.config import BanditConfig, PolicyConfig
from repro.errors import PersonalizerError
from repro.personalizer.service import PersonalizerService


def _context():
    return ContextFeatures(span=(1, 2), estimated_cost=10.0)


def _actions(n=3):
    return [ActionFeatures(rule_id=None)] + [
        ActionFeatures(rule_id=i, turn_on=True) for i in range(1, n)
    ]


def test_rank_returns_event_and_probability():
    service = PersonalizerService(seed=1)
    response = service.rank(_context(), _actions())
    assert response.probability == pytest.approx(1.0 / 3)
    assert service.pending_events == 1


@pytest.mark.parametrize("bits", [-1, 0, 31])
def test_config_rejects_hash_bits_out_of_range(bits):
    with pytest.raises(PersonalizerError, match="hash_bits"):
        BanditConfig(hash_bits=bits)


@pytest.mark.parametrize("order", [0, 4, 7])
def test_config_rejects_unknown_interaction_order(order):
    with pytest.raises(PersonalizerError, match="interaction_order"):
        BanditConfig(interaction_order=order)


@pytest.mark.parametrize("epsilon", [-0.1, 2.0, float("nan")])
def test_config_rejects_epsilon_outside_unit_interval(epsilon):
    with pytest.raises(PersonalizerError, match="epsilon"):
        BanditConfig(epsilon=epsilon)


@pytest.mark.parametrize(
    "field, value", [("hash_bits", -1), ("hash_bits", 31), ("epsilon", 2.0), ("epsilon", -0.1)]
)
def test_policy_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(PersonalizerError, match=field):
        PolicyConfig(**{field: value})


def test_rank_empty_actions_rejected():
    with pytest.raises(PersonalizerError):
        PersonalizerService(seed=1).rank(_context(), [])


def test_reward_consumes_event():
    service = PersonalizerService(seed=1)
    response = service.rank(_context(), _actions())
    service.reward(response.event_id, 1.0)
    assert service.pending_events == 0
    assert len(service.event_log) == 1
    with pytest.raises(PersonalizerError):
        service.reward(response.event_id, 1.0)


def test_unknown_event_rejected():
    with pytest.raises(PersonalizerError):
        PersonalizerService(seed=1).reward("nope", 1.0)


def test_learned_mode_exploits_rewards():
    config = BanditConfig(epsilon=0.0, learning_rate=0.3)
    service = PersonalizerService(config, seed=2, mode="uniform_logging")
    actions = _actions(3)
    # action 2 is clearly best
    for _ in range(200):
        response = service.rank(_context(), actions)
        reward = 1.8 if response.action.rule_id == 2 else 0.6
        service.reward(response.event_id, reward)
    service.switch_mode("learned")
    picks = [service.rank(_context(), actions) for _ in range(10)]
    for response in picks:
        service.reward(response.event_id, 1.0)
    assert sum(1 for p in picks if p.action.rule_id == 2) >= 8


def test_bad_mode_rejected():
    with pytest.raises(PersonalizerError):
        PersonalizerService(seed=1, mode="chaotic")
    with pytest.raises(PersonalizerError):
        PersonalizerService(seed=1).switch_mode("chaotic")


def test_model_versioning_roundtrip():
    service = PersonalizerService(seed=3)
    response = service.rank(_context(), _actions())
    service.reward(response.event_id, 2.0)
    version = service.publish_version()
    before = service.learner.snapshot()
    response = service.rank(_context(), _actions())
    service.reward(response.event_id, -5.0)
    service.restore_version(version)
    assert (service.learner.snapshot() == before).all()
    with pytest.raises(PersonalizerError):
        service.restore_version(99)


def test_restore_version_restores_full_snapshot():
    """Rollback means the *whole* snapshot: the updates counter must travel
    with the weights, or a restored model claims training it never kept."""
    service = PersonalizerService(seed=5)
    response = service.rank(_context(), _actions())
    service.reward(response.event_id, 1.5)
    version = service.publish_version()
    updates_at_publish = service.learner.updates
    for _ in range(7):
        response = service.rank(_context(), _actions())
        service.reward(response.event_id, 0.2)
    assert service.learner.updates == updates_at_publish + 7
    service.restore_version(version)
    assert service.learner.updates == updates_at_publish


def test_unrewarded_events_expire_with_default_reward():
    config = BanditConfig(activation_timeout_days=2, expired_event_reward=0.25)
    service = PersonalizerService(config, seed=6)
    stale = service.rank(_context(), _actions())
    service.publish_version()  # tick 1: age 1, still pending
    assert service.pending_events == 1
    fresh = service.rank(_context(), _actions())
    service.publish_version()  # tick 2: the stale event ages out
    assert service.pending_events == 1  # only the fresh one survives
    assert service.expired_events == 1
    assert service.event_log[-1].reward == 0.25
    # the expired event is final: a late reward is rejected like a double one
    with pytest.raises(PersonalizerError):
        service.reward(stale.event_id, 1.0)
    # the fresh event is still rewardable
    service.reward(fresh.event_id, 1.0)
    assert service.pending_events == 0


def test_expiry_disabled_with_zero_timeout():
    config = BanditConfig(activation_timeout_days=0)
    service = PersonalizerService(config, seed=7)
    service.rank(_context(), _actions())
    for _ in range(5):
        service.publish_version()
    assert service.pending_events == 1
    assert service.expired_events == 0


def test_counterfactual_evaluation_reports_estimators():
    service = PersonalizerService(seed=4)
    for _ in range(50):
        response = service.rank(_context(), _actions())
        service.reward(response.event_id, 1.0 if response.action.rule_id else 0.5)
    estimates = service.counterfactual_evaluate()
    assert set(estimates) >= {"ips", "snips", "dr", "logged_mean", "events"}
    assert estimates["events"] == 50.0
    assert 0.0 <= estimates["snips"] <= 2.0
