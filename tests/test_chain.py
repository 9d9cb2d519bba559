"""Chain construction, validation, and file round-trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerohold as z
import zerohold.cli as cli
from zerohold.errors import ParseError, PreconditionError, SpecValidationError

from conftest import four_state_spec, single_interior_spec


def test_round_trip_is_bit_exact(four_state):
    text = z.emit_spec(four_state)
    back = z.parse_spec(text)
    assert back.n_states == four_state.n_states
    assert back.wait_threshold == four_state.wait_threshold
    assert back.escape_state == four_state.escape_state
    assert np.array_equal(back.rates, four_state.rates)


def test_round_trip_keeps_escape_state(transient_walk):
    back = z.parse_spec(z.emit_spec(transient_walk))
    assert back.escape_state == transient_walk.escape_state
    assert np.array_equal(back.rates, transient_walk.rates)


def _random_spec(rng, n):
    """A strongly connected chain with zero, -0.0 and positive rates, and at times an origin self-rate."""
    rates = np.where(rng.random((n, n)) < 0.4, rng.uniform(0.1, 3.0, (n, n)), 0.0)
    rates[rng.random((n, n)) < 0.2] = -0.0
    rates[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.1, 3.0, n)  # a ring through every state
    np.fill_diagonal(rates, 0.0)
    rates[0, 0] = rng.uniform(0.1, 1.0) if rng.random() < 0.5 else -0.0
    return z.ChainSpec(n_states=n, rates=rates, wait_threshold=float(rng.uniform(0.3, 2.0)))


def test_serializers_keep_the_order_of_a_walk_over_every_entry():
    rng = np.random.default_rng(11)
    for _ in range(40):
        spec = _random_spec(rng, int(rng.integers(2, 13)))
        n, r = spec.n_states, spec.rates
        doc = {"n_states": n, "rates": [[i, j, float(r[i, j])] for i in range(n) for j in range(n) if r[i, j] != 0.0],
               "wait_threshold": spec.wait_threshold}
        assert z.emit_spec(spec) == json.dumps(doc, indent=2)
        for cond in (z.make_vague_limit(spec), z.make_hlambda(spec, 0.0)):
            text = z.conditioned_to_json(cond)
            doc = json.loads(text)
            doc["interior_rates"] = [[i, j, cond.rates[i, j]] for i in range(1, n) for j in range(1, n)
                                     if i != j and cond.rates[i, j] > 0.0]
            assert text == json.dumps(doc, indent=2)


def test_exit_rates_match_row_sums(four_state):
    # stored q_i must equal the sum of off-diagonal rates
    off = four_state.rates.copy()
    np.fill_diagonal(off, 0.0)
    assert np.allclose(four_state.exit_rates, off.sum(axis=1), rtol=1e-12, atol=0.0)


def test_build_birth_death_passes_validate():
    for b, d, n in ((1.0, 2.0, 10), (2.0, 1.0, 25), (0.5, 0.5, 8)):
        spec = z.build_birth_death(b, d, n, {1: 1.0})
        violations = z.validate(spec)
        assert violations == (), violations


def test_build_birth_death_shape():
    spec = z.build_birth_death(1.5, 0.5, 12, {1: 0.7, 2: 0.3})
    assert spec.n_states == 13
    assert spec.escape_state == 12
    assert spec.rates[0, 1] == pytest.approx(0.7)
    assert spec.rates[0, 2] == pytest.approx(0.3)
    # interior transitions
    assert spec.rates[5, 6] == 1.5
    assert spec.rates[5, 4] == 0.5
    # reflecting top: no escape upward beyond N
    assert spec.rates[12, 11] == 0.5


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        z.parse_spec("{not json")


def test_parse_rejects_missing_fields():
    with pytest.raises(ParseError):
        z.parse_spec(json.dumps({"rates": []}))


def test_parse_defaults_wait_threshold():
    spec = z.parse_spec(json.dumps({"n_states": 2, "rates": [[0, 1, 1.0], [1, 0, 2.0]]}))
    assert spec.wait_threshold == 1.0


@pytest.mark.parametrize("theta", ["Infinity", "1e999", "1" + "0" * 400], ids=["Infinity", "1e999", "401-digit"])
def test_parse_rejects_an_infinite_wait_threshold(theta):
    # Python's json reads the first two as an infinite float, the third as an integer no double holds
    with pytest.raises(ParseError):
        z.parse_spec('{"n_states": 2, "rates": [[0, 1, 1.0], [1, 0, 2.0]], "wait_threshold": %s}' % theta)


def test_parse_rejects_a_rate_beyond_the_double_range():
    with pytest.raises(ParseError):
        z.parse_spec('{"n_states": 2, "rates": [[0, 1, %s], [1, 0, 2.0]]}' % ("1" + "0" * 400))


@pytest.mark.parametrize("theta", [-1.0, 0.0, math.inf, math.nan])
def test_validate_flags_a_wait_threshold_that_is_not_finite_and_positive(theta):
    spec = z.ChainSpec(n_states=2, rates=np.array([[0.0, 1.0], [2.0, 0.0]]), wait_threshold=theta)
    assert [tag for tag, _ in z.validate(spec)] == ["wait threshold"]


def test_validate_flags_negative_rate():
    rates = np.array([[0.0, 1.0], [-2.0, 0.0]])
    spec = z.ChainSpec(n_states=2, rates=rates, wait_threshold=1.0)
    tags = [tag for tag, _ in z.validate(spec)]
    assert "negative rate" in tags


def test_validate_flags_disconnected_interior():
    # two interior states that never talk to each other: C not strongly connected
    rates = np.zeros((3, 3))
    rates[0, 1] = 0.5
    rates[0, 2] = 0.5
    rates[1, 0] = 1.0
    rates[2, 0] = 1.0
    spec = z.ChainSpec(n_states=3, rates=rates, wait_threshold=1.0)
    assert z.validate(spec), "expected a strong-connectivity violation"


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)],  # {2, 3} is reached from 0 and never returns
    [(0, 1), (1, 0), (2, 0), (2, 1)],  # 2 reaches 0 and is never reached
], ids=["trap", "source"])
def test_validate_flags_one_way_reach(edges):
    n = 1 + max(max(edge) for edge in edges)
    rates = np.zeros((n, n))
    for i, j in edges:
        rates[i, j] = 1.0
    violations = z.validate(z.ChainSpec(n_states=n, rates=rates, wait_threshold=1.0))
    assert [tag for tag, _ in violations] == ["not strongly connected"]


def _closure_strong(adj: np.ndarray, states: list) -> bool:
    """Reference: the first of ``states`` reaches each of them and back, by the transitive closure on them."""
    reach = adj[np.ix_(states, states)] | np.eye(len(states), dtype=bool)
    for k in range(len(states)):  # Warshall
        reach |= np.outer(reach[:, k], reach[k])
    return bool(reach[0].all() and reach[:, 0].all())


@st.composite
def _connected_candidates(draw):
    """Digraphs on 1-12 states in which every state has an exit, so validate reaches its connectivity checks.

    In ``source`` graphs the origin reaches every state and no edge leads
    back into it.  ``split`` graphs link the origin both ways with every
    state and cut the interior in two, with edges across the cut one way
    only, so only the killed chain fails.
    """
    kind = draw(st.sampled_from(["random", "source", "split"]))
    n = draw(st.integers(1 if kind == "random" else 3, 12))
    bits = draw(st.integers(0, 2 ** (n * n) - 1))  # one draw per graph keeps generation cheap
    adj = np.array([bits >> k & 1 for k in range(n * n)], dtype=bool).reshape(n, n)
    if kind == "source":
        adj[:, 0] = False
        adj[0, 1:] = True
    elif kind == "split":
        cut = draw(st.integers(2, n - 1))
        adj[cut:, 1:cut] = False
        adj[0, 1:] = adj[1:, 0] = True
    np.fill_diagonal(adj, False)
    adj[0, 0] = n == 1  # a lone origin returns to itself
    for i in range(n):
        if not adj[i].any():
            # a step up, or from the top state down, or to the origin where that is allowed
            adj[i, i + 1 if i + 1 < n else i - 1 if kind == "source" else 0] = True
    return kind, adj


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_connected_candidates())
def test_validate_connectivity_matches_transitive_closure(case):
    kind, adj = case
    n = adj.shape[0]
    rates = np.where(adj, 1.0, 0.0)
    got = [msg for tag, msg in z.validate(z.ChainSpec(n_states=n, rates=rates)) if tag == "not strongly connected"]
    if not _closure_strong(adj, list(range(n))):
        want = ["the chain graph is not strongly connected"]
    elif n > 2 and not _closure_strong(adj, list(range(1, n))):
        want = ["the killed chain on states 1.. is not strongly connected"]
    else:
        want = []
    assert got == want
    if kind == "source":
        assert want == ["the chain graph is not strongly connected"]
    elif kind == "split":
        assert want == ["the killed chain on states 1.. is not strongly connected"]


def test_validate_accepts_the_fixtures():
    for spec in (single_interior_spec(), four_state_spec()):
        assert z.validate(spec) == ()


def test_spec_is_immutable(single_interior):
    with pytest.raises((AttributeError, ValueError)):
        single_interior.rates[0, 1] = 99.0
    # the exit rates are summed once, when the spec is made
    with pytest.raises(ValueError):
        single_interior.exit_rates[0] = 99.0


def test_augmented_state_clock_bounds(single_interior):
    st = z.AugmentedState(0, 0.25)
    assert st.state == 0 and st.clock == 0.25
    with pytest.raises(PreconditionError):
        z.solve_renewal(single_interior, 0.5, 0.01)  # t_max below threshold


def test_augmented_state_rejects_a_nan_clock():
    with pytest.raises(PreconditionError):
        z.AugmentedState(0, math.nan)
    with pytest.raises(PreconditionError):
        z.AugmentedState(0, -0.5)


@pytest.mark.parametrize("u", [math.nan, -1e-300, 1.0, 2.0, math.inf, -math.inf])
def test_check_clock_wants_a_clock_below_the_window(u, single_interior):
    with pytest.raises(PreconditionError, match="below the window"):
        single_interior.check_clock(u)


def test_check_start_wants_a_state_inside_the_chain(single_interior):
    for start in (z.AugmentedState(0), z.AugmentedState(0, 1.0 - 1e-12), z.AugmentedState(1)):
        single_interior.check_start(start)
        single_interior.check_clock(start.clock)
    with pytest.raises(PreconditionError, match="outside the chain"):
        single_interior.check_start(z.AugmentedState(2))
    with pytest.raises(PreconditionError, match="below the window"):
        single_interior.check_start(z.AugmentedState(0, 1.0))


@pytest.mark.parametrize("args, tag", [
    ((0.0, 1.0, 10, {1: 1.0}), "not strongly connected"),
    ((1.0, [2.0] * 9 + [0.0], 10, {1: 1.0}), "absorbing state"),
    ((1.0, -2.0, 10, {1: 1.0}), "negative rate"),
    ((math.nan, 2.0, 10, {1: 1.0}), "negative rate"),
    ((1.0, 2.0, 10, {}), "zero q_0"),
    ((1.0, 2.0, 10, {1: -1.0}), "negative rate"),
], ids=["zero-birth", "zero-death", "negative-death", "nan-birth", "no-exit", "negative-exit"])
def test_build_birth_death_leaves_rate_rules_to_validate(args, tag):
    with pytest.raises(SpecValidationError) as info:
        z.build_birth_death(*args)
    assert tag in [t for t, _ in info.value.violations]


def test_build_birth_death_keeps_its_own_rules():
    with pytest.raises(SpecValidationError, match="at least 2"):
        z.build_birth_death(1.0, 2.0, 1, {1: 1.0})
    with pytest.raises(SpecValidationError, match="needs an entry for state 4"):
        z.build_birth_death(1.0, [2.0, 2.0, 2.0], 5, {1: 1.0})
    with pytest.raises(SpecValidationError, match="must lie in 1..4"):
        z.build_birth_death(1.0, 2.0, 5, {5: 1.0})


def test_build_birth_death_reads_a_zero_exit_weight_as_no_edge():
    spec = z.build_birth_death(1.0, 2.0, 10, {1: 1.0, 2: 0.0})
    assert spec == z.build_birth_death(1.0, 2.0, 10, {1: 1.0})
    b, d = np.linspace(1.0, 2.0, 9), np.linspace(2.0, 3.0, 10)
    spec = z.build_birth_death(b, d, 10, {1: 0.5, 3: 1.5})
    assert np.array_equal(np.diagonal(spec.rates, 1)[1:], b)
    assert np.array_equal(np.diagonal(spec.rates, -1), d)


_TWO = '"n_states": 2, "rates": [[0, 1, 1.0], [1, 0, 2.0]]'

# every rule of parse_spec and validate: a document, read through parse_spec and
# `analyze`, or a spec that no document can give, read through validate
_INPUT_RULES = [
    ("malformed", "{not json", ParseError, "line 1, column 2"),
    ("top-level", "[1, 2]", ParseError, "top level must be a JSON object"),
    ("unknown-field", '{%s, "colour": 1}' % _TWO, ParseError, "unknown field(s): colour"),
    ("missing-n", '{"rates": []}', ParseError, "'n_states' is missing"),
    ("n-type", '{"n_states": "2", "rates": []}', ParseError, "'n_states' must be a positive integer"),
    ("n-zero", '{"n_states": 0, "rates": []}', ParseError, "'n_states' must be a positive integer"),
    ("rates-type", '{"n_states": 2, "rates": {}}', ParseError, "'rates' must be an array of [i, j, rate] triples"),
    ("triple-shape", '{"n_states": 2, "rates": [[0, 1]]}', ParseError, "rates[0] is not an [i, j, rate] triple"),
    ("integer-index", '{"n_states": 2, "rates": [[0, 1, 1.0], [1.0, 0, 2.0]]}', ParseError,
     "rates[1]: state indices must be integers"),
    ("index-range", '{"n_states": 2, "rates": [[0, 2, 1.0]]}', ParseError,
     "rates[0]: state index out of range for n_states=2"),
    ("rate-type", '{"n_states": 2, "rates": [[0, 1, "1.0"]]}', ParseError, "rates[0]: rate must be a number"),
    ("rate-range", '{"n_states": 2, "rates": [[0, 1, 1%s]]}' % ("0" * 400), ParseError,
     "rates[0]: rate is too large for a double"),
    ("duplicate", '{"n_states": 2, "rates": [[0, 1, 1.0], [1, 0, 2.0], [0, 1, 3.0]]}', ParseError,
     "rates[2]: duplicate entry for (0, 1)"),
    ("theta", '{%s, "wait_threshold": 0}' % _TWO, ParseError, "'wait_threshold' must be a finite positive number"),
    ("escape-type", '{%s, "escape_state": "1"}' % _TWO, ParseError, "'escape_state' must be an integer state index"),
    ("self-rate", '{"n_states": 2, "rates": [[0, 1, 1.0], [1, 0, 2.0], [1, 1, 0.5]]}', SpecValidationError,
     "[self rate] state 1 has a self rate; only the origin may return to itself"),
    ("negative", '{"n_states": 2, "rates": [[0, 1, 1.0], [1, 0, -2.0]]}', SpecValidationError,
     "[negative rate] rate[1,0] is negative"),
    ("non-finite", '{"n_states": 2, "rates": [[0, 1, 1.0], [1, 0, Infinity]]}', SpecValidationError,
     "[negative rate] rates must be finite"),
    ("absorbing", '{"n_states": 3, "rates": [[0, 1, 1.0], [1, 0, 2.0], [0, 2, 1.0]]}', SpecValidationError,
     "[absorbing state] state 2 has no positive exit rate"),
    ("zero-q0", '{"n_states": 2, "rates": [[1, 0, 2.0]]}', SpecValidationError,
     "[zero q_0] the origin has no positive exit rate"),
    ("one-way", '{"n_states": 3, "rates": [[0, 1, 1.0], [1, 0, 2.0], [2, 0, 1.0]]}', SpecValidationError,
     "[not strongly connected] the chain graph is not strongly connected"),
    ("killed-one-way", '{"n_states": 3, "rates": [[0, 1, 1.0], [0, 2, 1.0], [1, 0, 2.0], [2, 0, 1.0], [2, 1, 1.0]]}',
     SpecValidationError, "[not strongly connected] the killed chain on states 1.. is not strongly connected"),
    ("escape-range", '{%s, "escape_state": 5}' % _TWO, SpecValidationError,
     "[escape state] escape_state 5 is not an interior state"),
    ("no-states", z.ChainSpec(0, np.zeros((0, 0))), SpecValidationError,
     "[absorbing state] chain needs at least the origin state"),
    ("shape", z.ChainSpec(2, np.ones((2, 3))), SpecValidationError, "[negative rate] rates must be 2x2, got (2, 3)"),
]


@pytest.mark.parametrize("source, error, words", [case[1:] for case in _INPUT_RULES],
                         ids=[case[0] for case in _INPUT_RULES])
def test_every_input_rule_has_its_error_and_message(source, error, words, tmp_path, capsys):
    if isinstance(source, z.ChainSpec):
        exc = SpecValidationError(z.validate(source))
    else:
        with pytest.raises(error) as info:
            z.parse_spec(source)
        exc = info.value
        path = tmp_path / "spec.json"
        path.write_text(source, encoding="utf-8")
        assert cli.main(["analyze", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": error.__name__, "message": str(exc), "exit_code": 1}
    assert type(exc) is error
    assert words in str(exc)
