"""Chain construction, validation, and file round-trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerohold as z
from zerohold.errors import ParseError, PreconditionError

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
