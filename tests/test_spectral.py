"""Killed-generator algebra: solves, decay rates, semigroup action.

Decay-rate oracles come from the symmetric-tridiagonal closed form for
birth-death truncations with an absorbing top, alpha(N) = (b+d) -
2*sqrt(b*d)*cos(pi/N), and from dense eigensolves on small matrices.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import zerohold as z
from zerohold.errors import PreconditionError, SingularMatrixError

from conftest import four_state_spec


def _bd_dirichlet_alpha(b: float, d: float, n: int) -> float:
    return (b + d) - 2.0 * math.sqrt(b * d) * math.cos(math.pi / n)


def test_killed_generator_drops_origin(four_state):
    gen = z.killed_generator(four_state)
    assert gen.states == (1, 2, 3)
    # row for state 1 keeps the 1->2 rate and leaks the 1->0 rate
    assert gen.matrix[0, 1] == pytest.approx(0.6)
    assert gen.matrix[0].sum() == pytest.approx(-1.0)


def test_killed_generator_drop_escape():
    spec = z.build_birth_death(1.0, 2.0, 10, {1: 1.0})
    gen = z.killed_generator(spec, drop_escape=True)
    assert spec.escape_state not in gen.states
    assert gen.size == 9


def test_solve_linear_against_numpy():
    rng = np.random.default_rng(42)
    for n in (1, 3, 7, 20):
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = z.solve_linear(a, b)
        assert np.allclose(a @ x, b, atol=1e-10 * (1 + np.abs(b).max()))
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-12)


def test_solve_linear_rejects_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as exc:
            z.solve_linear(a, np.ones(2))
    assert exc.value.column == 1
    assert exc.value.pivot == 0.0


def test_perron_decay_single_state():
    spec = z.ChainSpec(n_states=2, rates=np.array([[0.0, 1.0], [2.0, 0.0]]))
    gen = z.killed_generator(spec)
    assert z.perron_decay(gen) == pytest.approx(2.0, abs=1e-12)


def test_perron_decay_small_chain_matches_dense_eig(four_state):
    gen = z.killed_generator(four_state)
    alpha = z.perron_decay(gen)
    eigs = np.linalg.eigvals(gen.matrix)
    assert alpha == pytest.approx(min(-eigs.real), abs=1e-9)
    assert alpha > 0.0


def test_perron_decay_closed_form_dirichlet():
    for b, d, n in ((1.0, 2.0, 25), (1.0, 2.0, 50), (2.0, 3.0, 30), (1.0, 1.0, 40)):
        spec = z.build_birth_death(b, d, n, {1: 1.0})
        gen = z.killed_generator(spec, drop_escape=True)
        alpha = z.perron_decay(gen)
        assert alpha == pytest.approx(_bd_dirichlet_alpha(b, d, n), rel=1e-10)


def test_perron_decay_survives_strong_drift():
    # the raw matrix is similar to a symmetric one only through a 2^N-graded
    # scaling; its pseudospectrum makes shifted solves singular far from the
    # spectrum, so the detailed-balance conditioning must kick in
    for n in (100, 200):
        spec = z.build_birth_death(1.0, 2.0, n, {1: 1.0})
        gen = z.killed_generator(spec, drop_escape=True)
        alpha = z.perron_decay(gen)
        assert alpha == pytest.approx(_bd_dirichlet_alpha(1.0, 2.0, n), rel=1e-9)


def test_perron_decay_nonreversible_cycle():
    # one-way cycle rates: no detailed-balance scaling exists
    rates = np.zeros((4, 4))
    rates[0, 1] = 1.0
    rates[1, 2] = 2.0
    rates[2, 3] = 1.5
    rates[3, 1] = 0.7
    rates[1, 0] = 0.5
    rates[2, 0] = 0.3
    rates[3, 0] = 0.4
    spec = z.ChainSpec(n_states=4, rates=rates, wait_threshold=1.0)
    gen = z.killed_generator(spec)
    alpha = z.perron_decay(gen)
    eigs = np.linalg.eigvals(gen.matrix)
    assert alpha == pytest.approx(min(-eigs.real), abs=1e-9)

    # seeded random chains: a directed ring plus one-way chords, leaking at a few states
    rng = np.random.default_rng(20)
    for n in (20, 45, 80, 150):
        q = np.zeros((n, n))
        q[np.arange(n), np.roll(np.arange(n), -1)] = rng.uniform(0.5, 1.5, n)
        chords = rng.random((n, n)) < 0.05
        np.fill_diagonal(chords, False)
        chords &= (q == 0.0) & (q.T == 0.0)
        chords &= ~chords.T
        q[chords] = rng.uniform(0.1, 1.0, int(chords.sum()))
        leak = np.zeros(n)
        leak[rng.choice(n, size=n // 10, replace=False)] = rng.uniform(0.2, 2.0, n // 10)
        np.fill_diagonal(q, -(q.sum(axis=1) + leak))
        gen = z.KilledGenerator(matrix=q, states=tuple(range(1, n + 1)))
        alpha = z.perron_decay(gen)
        eigs = np.linalg.eigvals(q)
        assert alpha == pytest.approx(min(-eigs.real), rel=1e-9)


def test_perron_decay_monotone_in_killing():
    base = four_state_spec()
    gen = z.killed_generator(base)
    alpha0 = z.perron_decay(gen)
    bumped = base.rates.copy()
    bumped[2, 0] = 0.5  # extra direct route into the origin
    spec2 = z.ChainSpec(n_states=4, rates=bumped, wait_threshold=0.8)
    alpha1 = z.perron_decay(z.killed_generator(spec2))
    assert alpha1 >= alpha0 - 1e-12


def test_expm_action_matches_scipy(four_state):
    gen = z.killed_generator(four_state)
    v = np.array([1.0, 0.5, 0.25])
    for t in (0.1, 1.0, 4.0):
        want = scipy.linalg.expm(gen.matrix * t) @ v
        got = z.expm_action(gen, v, t)
        assert np.allclose(got, want, atol=1e-8)


def test_expm_action_semigroup(four_state):
    gen = z.killed_generator(four_state)
    v = np.array([0.2, 1.0, 0.7])
    via_two = z.expm_action(gen, z.expm_action(gen, v, 0.8), 1.3)
    direct = z.expm_action(gen, v, 2.1)
    assert np.allclose(via_two, direct, atol=1e-8)


def test_expm_action_identity_at_zero(four_state):
    gen = z.killed_generator(four_state)
    v = np.array([0.3, 0.6, 0.9])
    assert np.array_equal(z.expm_action(gen, v, 0.0), v)


def test_expm_action_rejects_negative_time(four_state):
    gen = z.killed_generator(four_state)
    with pytest.raises(PreconditionError):
        z.expm_action(gen, np.ones(3), -1.0)


def test_expm_action_preserves_substochastic(four_state):
    gen = z.killed_generator(four_state)
    out = z.expm_action(gen, np.ones(3), 2.0)
    assert np.all(out >= -1e-12)
    assert np.all(out <= 1.0 + 1e-12)


def test_killed_generator_rejects_conservative():
    rates = np.zeros((3, 3))
    rates[0, 1] = 1.0
    rates[1, 2] = 1.0
    rates[2, 1] = 1.0  # interior never reaches 0
    with pytest.raises(PreconditionError):
        z.killed_generator(z.ChainSpec(n_states=3, rates=rates, wait_threshold=1.0))
