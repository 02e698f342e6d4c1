"""Target policies over a linear scorer, for off-policy evaluation.

Each exposes ``action_probability(context, actions, index, scorer)``, the
hook the estimators of :mod:`repro.bandit.offpolicy` evaluate a candidate
policy through, so a logged event stream can be scored under policies
that never acted.
"""

from __future__ import annotations

import numpy as np

from repro.bandit.features import joint_features

__all__ = ["UniformPolicy", "EpsilonGreedyPolicy"]


class UniformPolicy:
    """Uniform-at-random logging policy (the paper's off-policy data source)."""

    def action_probability(self, context, actions, index, scorer=None) -> float:
        return 1.0 / len(actions)


class EpsilonGreedyPolicy:
    """Exploit the scorer's argmax with probability 1−ε, explore otherwise."""

    def __init__(self, epsilon: float, bits: int, interaction_order: int = 3) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self.bits = bits
        self.interaction_order = interaction_order

    def action_probability(self, context, actions, index, scorer=None) -> float:
        scores = np.empty(len(actions))
        for position, action in enumerate(actions):
            vector = joint_features(context, action, self.bits, self.interaction_order)
            scores[position] = scorer.score(vector)
        greedy = int(np.argmax(scores))
        base = self.epsilon / len(scores)
        return base + (1.0 - self.epsilon) * (1.0 if index == greedy else 0.0)
