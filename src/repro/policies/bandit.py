"""The paper's contextual bandit as a steering policy (§3.1, §4.2, §6).

A :class:`~repro.bandit.learner.CBLearner` — hashed linear regression over
the span's interaction features, IPS-weighted — behind the
:class:`~repro.policies.base.LearnedSteeringPolicy` lifecycle: uniform
logging during warm-up, epsilon-greedy over the learner's scores once
learned, one published snapshot per day with rollback, and expiry of rank
events whose reward never arrives (the Azure Personalizer activation
timeout, configured by :class:`~repro.config.BanditConfig`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.bandit.learner import CBLearner
from repro.config import BanditConfig
from repro.policies.base import LearnedSteeringPolicy

if TYPE_CHECKING:
    from repro.scope.jobs import JobInstance

__all__ = ["BanditSteeringPolicy"]


class BanditSteeringPolicy(LearnedSteeringPolicy):
    """The CB learner as a :class:`LearnedSteeringPolicy`."""

    name = "bandit"
    # day-report fingerprints are built from this exploration stream and
    # these event ids, so both keep the paper's Personalizer naming
    rng_key = ("personalizer",)
    event_prefix = "evt"

    def __init__(
        self,
        config: BanditConfig | None = None,
        seed: int = 0,
        mode: str = "uniform_logging",
    ) -> None:
        self.config = config or BanditConfig()
        super().__init__(self.config.epsilon, seed, mode)
        self._activation_timeout = self.config.activation_timeout_days
        self._expired_reward = self.config.expired_event_reward
        self.learner = CBLearner(
            bits=self.config.hash_bits,
            learning_rate=self.config.learning_rate,
            l2=self.config.l2,
            interaction_order=self.config.interaction_order,
        )

    # layer probes wrap these two through the class's own namespace
    rank = LearnedSteeringPolicy.rank
    observe = LearnedSteeringPolicy.observe

    def _scores(
        self,
        context: ContextFeatures,
        actions: list[ActionFeatures],
        job: "JobInstance | None",
    ) -> np.ndarray:
        # context-only policy: the job is part of the seam, not of the CB
        return np.array([self.learner.score_action(context, action) for action in actions])

    def _learn(
        self,
        context: ContextFeatures,
        action: ActionFeatures,
        reward: float,
        probability: float,
    ) -> None:
        self.learner.update(context, action, reward, probability)

    def _snapshot(self) -> object:
        return (self.learner.snapshot(), self.learner.updates)

    def _restore(self, state: object) -> None:
        weights, updates = state
        self.learner.restore(weights, updates=updates)
