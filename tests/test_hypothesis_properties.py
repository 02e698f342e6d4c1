"""Property-based tests (hypothesis) on core data structures and invariants."""

from itertools import combinations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.bandit.features import (
    ActionFeatures,
    ContextFeatures,
    _log_bucket,
    joint_features,
)
from repro.bandit.learner import CBLearner
from repro.rng import keyed_rng, stable_hash
from repro.scope.language import ast
from repro.scope.optimizer.rules.base import (
    RuleConfiguration,
    RuleFlip,
    RuleSignature,
    default_registry,
)
from repro.scope.types import Column, DataType, Schema
from repro.sis.hints import HintEntry, parse_hint_file, render_hint_file

_REGISTRY = default_registry()
_SIZE = len(_REGISTRY)


@given(st.integers(min_value=0, max_value=(1 << _SIZE) - 1), st.integers(0, _SIZE - 1))
def test_flip_is_involution(bits, rule_id):
    config = RuleConfiguration(bits, _SIZE)
    assert config.with_flip(rule_id).with_flip(rule_id) == config


@given(st.integers(min_value=0, max_value=(1 << _SIZE) - 1))
def test_bitstring_roundtrip(bits):
    config = RuleConfiguration(bits, _SIZE)
    text = config.as_bitstring()
    assert len(text) == _SIZE
    rebuilt = sum(1 << i for i, ch in enumerate(text) if ch == "1")
    assert rebuilt == bits


@given(st.lists(st.integers(0, _SIZE - 1), unique=True))
def test_configuration_diff_matches_flips(rule_ids):
    config = _REGISTRY.default_configuration()
    flipped = config.with_flips(rule_ids)
    assert sorted(flipped.diff(config)) == sorted(rule_ids)


@given(st.sets(st.integers(0, _SIZE - 1)))
def test_signature_membership(ids):
    signature = RuleSignature.from_ids(ids, _SIZE)
    for rule_id in range(_SIZE):
        assert (rule_id in signature) == (rule_id in ids)


_names = st.text(alphabet="abcdefg", min_size=1, max_size=4)


@given(st.lists(_names, unique=True, min_size=1, max_size=6))
def test_schema_project_identity(names):
    schema = Schema([Column(n, DataType.INT) for n in names])
    assert schema.project(list(names)).names == tuple(names)


@given(
    st.lists(_names, unique=True, min_size=1, max_size=4),
    st.lists(_names, unique=True, min_size=1, max_size=4),
)
def test_schema_concat_width_additive(left_names, right_names):
    left = Schema([Column(n, DataType.INT) for n in left_names])
    right = Schema([Column(n, DataType.LONG) for n in right_names])
    joined = left.concat(right)
    assert len(joined) == len(left) + len(right)
    assert joined.row_width == left.row_width + right.row_width


_literals = st.integers(-100, 100).map(lambda v: ast.Literal(v, DataType.LONG))
_columns = _names.map(ast.ColumnRef)
_comparisons = st.tuples(_columns, _literals).map(
    lambda pair: ast.BinaryOp("==", pair[0], pair[1])
)


@given(st.lists(_comparisons, min_size=1, max_size=6))
def test_conjunction_split_roundtrip(conjuncts):
    rebuilt = ast.split_conjuncts(ast.make_conjunction(conjuncts))
    assert rebuilt == conjuncts


@given(st.lists(_comparisons, min_size=1, max_size=4))
def test_predicate_sql_is_parseable_shape(conjuncts):
    text = ast.make_conjunction(conjuncts).sql()
    assert text.count("(") == text.count(")")


@given(st.integers(), st.integers())
def test_stable_hash_is_stable_and_64bit(a, b):
    assert stable_hash(a, b) == stable_hash(a, b)
    assert 0 <= stable_hash(a, b) < (1 << 64)
    assert stable_hash(a, b) == stable_hash(a, b)


@given(st.integers(0, 2**32), st.text(max_size=8))
def test_keyed_rng_deterministic(seed, tag):
    a = keyed_rng(seed, tag).random()
    b = keyed_rng(seed, tag).random()
    assert a == b


@settings(max_examples=30)
@given(
    st.sets(st.integers(0, _SIZE - 1), min_size=0, max_size=8),
    st.integers(0, _SIZE - 1),
    st.booleans(),
)
def test_joint_features_deterministic(span, rule_id, turn_on):
    context = ContextFeatures(span=tuple(sorted(span)))
    action = ActionFeatures(rule_id=rule_id, turn_on=turn_on)
    first = joint_features(context, action, bits=16)
    second = joint_features(context, action, bits=16)
    assert first.values == second.values


# -- featurization byte-identity --------------------------------------------
#
# The reference below is the featurizer, scorer and SGD step as they were
# before slots and span blocks were memoized: every feature hashed afresh,
# every weight read by numpy scalar indexing.  Small hash widths force
# collisions inside the span block and between span, job, action and
# cross features, which is where a memo could reorder or mis-accumulate.


def _reference_add(values, bits, namespace, name):
    index = stable_hash("feat", namespace, name) & ((1 << bits) - 1)
    values[index] = values.get(index, 0.0) + 1.0


def _reference_context(values, context, bits, order):
    span = tuple(sorted(context.span))
    for rule_id in span:
        _reference_add(values, bits, "span", f"s{rule_id}")
    if order >= 2:
        for a, b in combinations(span, 2):
            _reference_add(values, bits, "span2", f"s{a}&s{b}")
    if order >= 3:
        for a, b, c in combinations(span, 3):
            _reference_add(values, bits, "span3", f"s{a}&s{b}&s{c}")
    for name in (
        f"cost_{_log_bucket(context.estimated_cost)}",
        f"card_{_log_bucket(context.estimated_cardinality)}",
        f"rows_{_log_bucket(context.row_count)}",
        f"read_{_log_bucket(context.bytes_read)}",
        f"verts_{_log_bucket(context.vertices)}",
        f"width_{_log_bucket(context.avg_row_length)}",
    ):
        _reference_add(values, bits, "job", name)
    if context.job_name:
        _reference_add(values, bits, "job", f"name_{context.job_name.split('_')[0]}")


def _reference_action(values, action, bits):
    if action.rule_id is None:
        _reference_add(values, bits, "action", "noop")
        return
    _reference_add(values, bits, "action", f"rule_{action.rule_id}")
    _reference_add(values, bits, "action", f"dir_{'on' if action.turn_on else 'off'}")
    if action.category:
        _reference_add(values, bits, "action", f"cat_{action.category}")


def _reference_joint(context, action, bits, order):
    values: dict[int, float] = {}
    _reference_context(values, context, bits, order)
    _reference_action(values, action, bits)
    if action.rule_id is not None:
        for span_rule in context.span:
            _reference_add(values, bits, "cross", f"s{span_rule}|a{action.rule_id}")
        inside = "in" if action.rule_id in context.span else "out"
        _reference_add(values, bits, "cross", f"self|{inside}")
    return values


def _reference_score(weights, values):
    total = 0.0
    for index, value in values.items():
        total += weights[index] * value
    return total


def _reference_update(weights, values, reward, probability, learning_rate, l2):
    prediction = _reference_score(weights, values)
    importance = 1.0 / max(probability, 0.01)
    norm_sq = sum(value * value for value in values.values()) or 1.0
    step = min(learning_rate * min(importance, 5.0), 0.5) / norm_sq
    error = reward - prediction
    for index, value in values.items():
        gradient = error * value - l2 * weights[index]
        weights[index] += step * gradient


_bits = st.sampled_from([3, 4, 5, 6, 7, 8, 18])
_orders = st.integers(1, 3)
_contexts = st.builds(
    ContextFeatures,
    span=st.lists(st.integers(0, _SIZE - 1), unique=True, max_size=9).map(tuple),
    estimated_cost=st.sampled_from([0.0, 5.0, 3e4, 2e9]),
    row_count=st.sampled_from([0.0, 120.0, 7e6]),
    job_name=st.sampled_from(["", "daily_report", "adhoc"]),
)
_actions = st.one_of(
    st.just(ActionFeatures(rule_id=None)),
    st.builds(
        ActionFeatures,
        rule_id=st.integers(0, _SIZE - 1),
        turn_on=st.booleans(),
        category=st.sampled_from(["", "exploration", "implementation"]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_contexts, _actions, _bits, _orders, st.integers(0, 2**32))
def test_memoized_features_and_score_match_reference(context, action, bits, order, seed):
    vector = joint_features(context, action, bits, order)
    reference = _reference_joint(context, action, bits, order)
    assert list(vector.values.items()) == list(reference.items())
    learner = CBLearner(bits=bits, interaction_order=order)
    learner.weights = keyed_rng(seed, "weights").normal(size=1 << bits)
    fast = learner.score(vector)
    slow = _reference_score(learner.weights, reference)
    assert np.float64(fast).tobytes() == np.float64(slow).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            _contexts,
            _actions,
            st.floats(-2.0, 2.0, allow_nan=False),
            st.floats(0.001, 1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
    _bits,
    _orders,
)
def test_learner_updates_match_reference_weights(events, bits, order):
    learner = CBLearner(bits=bits, learning_rate=0.3, l2=1e-3, interaction_order=order)
    weights = np.zeros(1 << bits)
    for context, action, reward, probability in events:
        learner.update(context, action, reward, probability)
        reference = _reference_joint(context, action, bits, order)
        _reference_update(weights, reference, reward, probability, 0.3, 1e-3)
        assert learner.weights.tobytes() == weights.tobytes()


_off_rules = _REGISTRY.ids_in_category(
    __import__("repro.scope.optimizer.rules.base", fromlist=["RuleCategory"]).RuleCategory.OFF_BY_DEFAULT
)


@settings(max_examples=30)
@given(st.lists(st.sampled_from(_off_rules), unique=True, min_size=1, max_size=4))
def test_hint_file_roundtrip(rule_ids):
    entries = [
        HintEntry(f"T{i:04d}", RuleFlip(rule_id, True))
        for i, rule_id in enumerate(rule_ids)
    ]
    assert parse_hint_file(render_hint_file(entries, day=1)) == entries
