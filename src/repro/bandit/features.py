"""Featurization for the rule-recommendation bandit.

Follows the paper's findings (§3.2, §6):

* the **context** is dominated by the *job span itself* — indicator
  features for every span bit plus **second and third order co-occurrence
  indicators** over span bits ("the surprising effectiveness of span
  features");
* numeric job features (Table 1) add marginal value and enter as
  log-bucketized indicators;
* **actions** are featurized by rule id and rule category;
* context × action interactions cross the span bits with the acted-on rule
  so the model can learn "flip r helps when s is in the span".

The span block (singletons, pairs and triples: O(s³) features for a span
of s rules) is a pure function of ``(sorted span, bits, order)``; it is
computed once per distinct span and memoized as an immutable tuple, so a
rank over 1+s actions no longer rehashes it per action.  Vectors built
from the memo are byte-identical to the per-feature form: same keys,
same insertion order, same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from repro.bandit.hashing import feature_index

__all__ = ["FeatureVector", "ContextFeatures", "ActionFeatures", "joint_features"]


@dataclass
class FeatureVector:
    """Sparse feature vector: hashed index → value (values accumulate)."""

    bits: int
    values: dict[int, float] = field(default_factory=dict)

    def add(self, namespace: str, name: str, value: float = 1.0) -> None:
        index = feature_index(namespace, name, self.bits)
        self.values[index] = self.values.get(index, 0.0) + value

    def __len__(self) -> int:
        return len(self.values)


#: bound on memoized span blocks (an entry count, not bytes); the default
#: 60-template mix has 21 distinct spans.  Its largest span has 17 rules, a
#: block of 17 + 136 + 680 = 833 features (832 slots at 18 bits), ~100 KB
#: as a tuple of (int, float) pairs, so a full memo of such blocks is ~6 MB.
#: A block grows with the cube of the span size: a 40-rule span gives
#: ~10.5k items, ~1.2 MB, and 64 of those ~78 MB.
SPAN_BLOCK_MEMO_SIZE = 64


@lru_cache(maxsize=SPAN_BLOCK_MEMO_SIZE)
def span_block(
    span: tuple[int, ...], bits: int, interaction_order: int
) -> tuple[tuple[int, float], ...]:
    """The ``(slot, value)`` items of a sorted span's singletons, pairs and
    triples, in the order they are added to an empty vector."""
    vector = FeatureVector(bits)
    for rule_id in span:
        vector.add("span", f"s{rule_id}")
    if interaction_order >= 2:
        for a, b in combinations(span, 2):
            vector.add("span2", f"s{a}&s{b}")
    if interaction_order >= 3:
        for a, b, c in combinations(span, 3):
            vector.add("span3", f"s{a}&s{b}&s{c}")
    return tuple(vector.values.items())


def _log_bucket(value: float) -> str:
    if value <= 0:
        return "neg"
    return str(int(math.log10(value + 1.0)))


@dataclass(frozen=True)
class ContextFeatures:
    """Per-job context: span plus Table 1 numerics."""

    span: tuple[int, ...]
    estimated_cost: float = 0.0
    estimated_cardinality: float = 0.0
    row_count: float = 0.0
    bytes_read: float = 0.0
    vertices: float = 0.0
    avg_row_length: float = 0.0
    job_name: str = ""

    def write_into(self, vector: FeatureVector, interaction_order: int = 3) -> None:
        """Write the context into an empty vector; it must come first so the
        memoized span block can be copied in wholesale."""
        if vector.values:
            raise ValueError("context features must be written into an empty vector")
        span = tuple(sorted(self.span))
        vector.values.update(span_block(span, vector.bits, interaction_order))
        vector.add("job", f"cost_{_log_bucket(self.estimated_cost)}")
        vector.add("job", f"card_{_log_bucket(self.estimated_cardinality)}")
        vector.add("job", f"rows_{_log_bucket(self.row_count)}")
        vector.add("job", f"read_{_log_bucket(self.bytes_read)}")
        vector.add("job", f"verts_{_log_bucket(self.vertices)}")
        vector.add("job", f"width_{_log_bucket(self.avg_row_length)}")
        if self.job_name:
            vector.add("job", f"name_{self.job_name.split('_')[0]}")


@dataclass(frozen=True)
class ActionFeatures:
    """One action: keep the default plan, or flip a single rule."""

    rule_id: int | None  # None = the no-op action
    turn_on: bool = False
    category: str = ""

    @property
    def is_noop(self) -> bool:
        return self.rule_id is None

    def write_into(self, vector: FeatureVector) -> None:
        if self.rule_id is None:
            vector.add("action", "noop")
            return
        vector.add("action", f"rule_{self.rule_id}")
        vector.add("action", f"dir_{'on' if self.turn_on else 'off'}")
        if self.category:
            vector.add("action", f"cat_{self.category}")


def joint_features(
    context: ContextFeatures,
    action: ActionFeatures,
    bits: int,
    interaction_order: int = 3,
) -> FeatureVector:
    """Context ⊕ action ⊕ (span × action) crossed features."""
    vector = FeatureVector(bits)
    context.write_into(vector, interaction_order)
    action.write_into(vector)
    if action.rule_id is not None:
        for span_rule in context.span:
            vector.add("cross", f"s{span_rule}|a{action.rule_id}")
        vector.add("cross", f"self|{'in' if action.rule_id in context.span else 'out'}")
    return vector
