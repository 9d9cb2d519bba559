"""Chain construction, validation, and file round-trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

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
