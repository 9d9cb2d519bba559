"""Killed-chain hitting analysis: beta, MGFs, decay parameters, closed forms.

The birth-death oracles are gambler's-ruin algebra: with ratio r = d/b the
probability of reaching the top boundary N before the origin, starting from
i, is (1 - r^i)/(1 - r^N).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import zerohold as z


def _ruin_beta(b: float, d: float, n: int, i: int) -> float:
    r = d / b
    return (1.0 - r**i) / (1.0 - r**n)


def test_never_hit_matches_ruin_formula():
    for b, d, n in ((2.0, 1.0, 8), (2.0, 1.0, 60), (3.0, 1.0, 12)):
        spec = z.build_birth_death(b, d, n, {1: 1.0})
        beta = z.never_hit_prob(spec)
        assert beta[0] == 0.0
        assert beta[spec.escape_state] == 1.0
        for i in (1, 2, n // 2, n - 1):
            assert beta[i] == pytest.approx(_ruin_beta(b, d, n, i), abs=1e-12)


def test_never_hit_recurrent_interior_vanishes(recurrent_walk):
    beta = z.never_hit_prob(recurrent_walk)
    # deep truncation: interior escape probabilities are 2^-k small
    assert beta[1] < 1e-15
    assert beta[10] < 1e-12


def test_analyze_classification(transient_walk, recurrent_walk):
    ht = z.analyze_hitting(transient_walk)
    assert ht.transient
    assert ht.delta == pytest.approx(0.5, abs=1e-12)
    assert ht.mu_C == 0.0
    assert ht.alpha_C > 0.0

    hr = z.analyze_hitting(recurrent_walk)
    assert not hr.transient
    assert hr.delta < 1e-6
    assert hr.mu_C == pytest.approx(hr.alpha_C)


def test_decay_params_agree_with_perron(recurrent_walk):
    # truncation analysis drops the escape state: the Dirichlet model
    dp = z.analyze_hitting(recurrent_walk)
    gen = z.killed_generator(recurrent_walk, drop_escape=True)
    assert dp.alpha_C == pytest.approx(z.perron_decay(gen), rel=1e-10)
    assert not dp.transient


def test_mgf_at_zero(transient_walk, recurrent_walk, four_state):
    # no truncation boundary: certain hit, F(0) = 1 exactly
    mf = z.hitting_mgf(four_state, 0.0)
    assert mf.finite
    assert np.allclose(mf.values[1:], 1.0, atol=1e-10)

    # truncations report the escape-aware value 1 - beta at every level
    for spec in (recurrent_walk, transient_walk):
        m = z.hitting_mgf(spec, 0.0)
        beta = z.never_hit_prob(spec)
        for i in (1, 5, 20, spec.n_states - 2):
            assert m.values[i] == pytest.approx(1.0 - beta[i], abs=1e-10)


def test_mgf_monotone_in_lambda(four_state):
    alpha = z.analyze_hitting(four_state).alpha_C
    grid = [0.0, 0.2 * alpha, 0.5 * alpha, 0.9 * alpha]
    prev = None
    for lam in grid:
        m = z.hitting_mgf(four_state, lam)
        assert m.finite
        vals = m.values[1:]
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        prev = vals


def test_mgf_blows_up_past_alpha(four_state):
    alpha = z.analyze_hitting(four_state).alpha_C
    m = z.hitting_mgf(four_state, 1.1 * alpha)
    assert not m.finite
    assert m.values is None


def test_bd_gamma_closed_form():
    # quadratic-root oracle: b*g^2 - (b+d-lam)*g + d = 0, smaller root over b
    for b, d, lam in ((1.0, 2.0, 0.1), (1.0, 2.0, 0.0), (2.0, 3.0, 0.05)):
        disc = (b + d - lam) ** 2 - 4 * b * d
        want = ((b + d - lam) - math.sqrt(disc)) / (2 * b)
        assert z.bd_gamma(b, d, lam) == pytest.approx(want, rel=1e-12)
    # downward-drift chain hits for sure: gamma(0) = 1
    assert z.bd_gamma(1.0, 2.0, 0.0) == pytest.approx(1.0)


def test_bd_gamma_matches_mgf_on_deep_truncation():
    spec = z.build_birth_death(1.0, 2.0, 200, {1: 1.0})
    mu = z.analyze_hitting(spec).mu_C
    for lam in (0.0, 0.45 * mu, 0.9 * mu):
        gamma = z.bd_gamma(1.0, 2.0, lam)
        m = z.hitting_mgf(spec, lam)
        assert m.finite
        for i in (1, 10, 25, 50):
            assert m.values[i] == pytest.approx(gamma**i, rel=1e-4)


def test_harmonic_vector_bd_residual(recurrent_walk):
    h = z.harmonic_vector_bd(recurrent_walk)
    assert h[0] == 0.0
    assert np.all(np.diff(h[: recurrent_walk.n_states]) > 0)
    gen = z.killed_generator(recurrent_walk)
    resid = gen.matrix @ h[np.array(gen.states)]
    # harmonicity holds away from the truncation top (the reflecting row is
    # the artifact of cutting the infinite chain)
    for row, state in enumerate(gen.states[:-1]):
        assert abs(resid[row]) <= 1e-10 * max(h[state], 1.0)


def test_harmonic_vector_bd_geometric_growth(recurrent_walk):
    # b=1, d=2: h_i = sum of 2^j below i = 2^i - 1
    h = z.harmonic_vector_bd(recurrent_walk)
    for i in (1, 2, 5, 10):
        assert h[i] == pytest.approx(2.0**i - 1.0, rel=1e-12)
