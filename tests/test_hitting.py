"""Killed-chain hitting analysis: beta, MGFs, decay parameters, closed forms.

The birth-death oracles are gambler's-ruin algebra: with ratio r = d/b the
probability of reaching the top boundary N before the origin, starting from
i, is (1 - r^i)/(1 - r^N).
"""

from __future__ import annotations

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerohold as z
import zerohold.chain as chain
import zerohold.hitting as hitting
import zerohold.spectral as spectral
from zerohold.errors import NumericError, PreconditionError

from conftest import (chord_bd_spec, four_state_spec, generator_block, heavy_bd_spec, killed_matrix,
                      poisson_chain_spec, single_interior_spec)


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


@pytest.mark.parametrize("spec", [z.build_birth_death(1.0, 2.0, 60, {1: 1.0}),
                                  z.build_birth_death(1.0, 2.0, 200, {1: 1.0}), heavy_bd_spec(40)],
                         ids=["bd60", "bd200", "heavy40"])
def test_never_hit_keeps_relative_accuracy(spec):
    # beta_1 is 2^-60 and 2^-200 small on the drifting walks; 1 - F(0) lost it
    # all, a positive solve keeps it; without an escape state it is exactly 0
    n = spec.escape_state
    want = np.zeros(spec.n_states) if n is None else np.array([_ruin_beta(1.0, 2.0, n, i) for i in range(n + 1)])
    np.testing.assert_allclose(z.never_hit_prob(spec), want, rtol=1e-14, atol=0.0)


def test_never_hit_recurrent_interior_vanishes(recurrent_walk):
    beta = z.never_hit_prob(recurrent_walk)
    # deep truncation: interior escape probabilities are 2^-k small
    assert beta[1] < 1e-15
    assert beta[10] < 1e-12


def test_never_hit_prob_rejects_a_closed_interior_class():
    # states 1 and 2 only feed each other: M(0) is a singular M-matrix
    rates = np.zeros((3, 3))
    rates[0, 1] = rates[1, 2] = rates[2, 1] = 1.0
    with pytest.raises(PreconditionError):
        z.never_hit_prob(z.ChainSpec(n_states=3, rates=rates))


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
    q, _ = killed_matrix(recurrent_walk, drop_escape=True)
    assert dp.alpha_C == pytest.approx(z.perron_decay(*generator_block(q)), rel=1e-10)
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
    # n = 1000 is within reach because the band path costs O(n) per transform
    for n in (200, 1000):
        spec = z.build_birth_death(1.0, 2.0, n, {1: 1.0})
        mu = z.analyze_hitting(spec).mu_C
        for lam in (0.0, 0.45 * mu, 0.9 * mu):
            gamma = z.bd_gamma(1.0, 2.0, lam)
            m = z.hitting_mgf(spec, lam)
            assert m.finite
            for i in (1, 10, 25, 50):
                assert m.values[i] == pytest.approx(gamma**i, rel=1e-4)


def _interior_matrix(spec, lam):
    """The active interior and M(lam) on it, assembled densely."""
    idx = np.array([i for i in spec.interior_states() if i != spec.escape_state])
    m = -spec.rates[np.ix_(idx, idx)]
    np.fill_diagonal(m, spec.exit_rates[idx] - lam + np.diag(m))
    return idx, m


def _dense_reference(spec, lam):
    """(F, F') on the active interior from the dense elimination, or None when infinite."""
    idx, m = _interior_matrix(spec, lam)
    lu = spectral._dense_lu(m, len(idx) * np.finfo(float).eps * np.abs(m).max())
    if lu is None:
        return None
    f = spectral.mmatrix_solve(lu, spec.rates[idx, 0])
    if np.any(f < -1e-12):
        return None
    return f, spectral.mmatrix_solve(lu, f)


_RATE = st.floats(0.05, 5.0)
_MAYBE_RATE = st.one_of(st.just(0.0), _RATE)  # a zero makes the edge one-way or cuts it


@st.composite
def _tridiagonal_chains(draw):
    k = draw(st.integers(1, 60))
    escape = draw(st.booleans())
    n = k + 1 + int(escape)
    rates = np.zeros((n, n))
    rates[0, draw(st.integers(1, k))] = 1.0
    for i in range(1, k + 1):
        if i + 1 < n:
            rates[i, i + 1] = draw(_MAYBE_RATE)
        if i > 1:
            rates[i, i - 1] = draw(_MAYBE_RATE)
        rates[i, 0] = draw(_RATE if i == 1 else _MAYBE_RATE)
    if escape:
        rates[n - 1, n - 2] = 1.0
    return z.ChainSpec(n_states=n, rates=rates, escape_state=n - 1 if escape else None)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    spec=_tridiagonal_chains(),
    frac=st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 1.5]), st.floats(-0.5, 2.0)),
)
def test_band_path_matches_dense_elimination(spec, frac):
    idx, m0 = _interior_matrix(spec, 0.0)
    alpha = float(np.linalg.eigvals(m0).real.min())  # alpha_C: M(0) is an M-matrix
    lam = frac * max(alpha, 1e-3)
    ref = _dense_reference(spec, lam)
    with mock.patch.object(spectral, "_dense_lu", side_effect=AssertionError("left the band path")):
        got = z.hitting_mgf(spec, lam)
    assert got.finite == (ref is not None)
    if ref is not None:
        np.testing.assert_array_max_ulp(got.values[idx], ref[0], maxulp=2)
        np.testing.assert_array_max_ulp(got.derivs[idx], ref[1], maxulp=2)


def _mp_moments(spec, lam):
    """(F, F') on the interior of a birth-death chain, escape state excluded, by a 40-digit elimination."""
    mp = mpmath.mp.clone()
    mp.dps = 40
    r = spec.rates
    top = spec.n_states if spec.escape_state is None else spec.escape_state
    k = top - 1
    mpf = mp.mpf
    diag = [mp.fsum(mpf(float(x)) for x in r[i]) - mpf(lam) for i in range(1, top)]
    up = [-mpf(float(r[i, i + 1])) for i in range(1, top - 1)]
    down = [-mpf(float(r[i + 1, i])) for i in range(1, top - 1)]
    pivots, mult = [diag[0]], []
    for j in range(1, k):
        mult.append(down[j - 1] / pivots[-1])
        pivots.append(diag[j] - mult[-1] * up[j - 1])

    def solve(rhs):
        x = list(rhs)
        for j in range(1, k):
            x[j] -= mult[j - 1] * x[j - 1]
        x[-1] /= pivots[-1]
        for j in range(k - 2, -1, -1):
            x[j] = (x[j] - up[j] * x[j + 1]) / pivots[j]
        return x

    f = solve([mpf(float(r[i, 0])) for i in range(1, top)])
    return f, solve(f)


@pytest.mark.parametrize("spec, exit_tol, entry_tol", [
    (z.build_birth_death(1.0, 2.0, 200, {1: 1.0}), 1e-13, 1e-11),
    (heavy_bd_spec(40), 1e-10, 1e-10),
], ids=["bd200", "heavy40"])
def test_band_path_against_forty_digits(spec, exit_tol, entry_tol):
    # F and F' grow toward the truncation top, and near alpha_C those entries
    # carry the conditioning of M(lam), as on the dense path; F at the
    # origin's exit state is what the return transform reads
    alpha = z.analyze_hitting(spec).alpha_C
    for frac in (0.5, 0.9, 0.999):
        got = z.hitting_mgf(spec, frac * alpha)
        f, df = _mp_moments(spec, frac * alpha)
        assert abs((got.values[1] - f[0]) / f[0]) <= exit_tol
        for vec, want in ((got.values, f), (got.derivs, df)):
            assert max(abs((vec[i + 1] - w) / w) for i, w in enumerate(want)) <= entry_tol


@pytest.mark.parametrize("c", [1e-7, 10**4.5], ids=["rates-1e-7", "rates-3e4"])
def test_hitting_tolerances_scale_with_the_rates(c):
    # the killed generator's row-sum check and the M-matrix pivot floor are
    # relative: rescaling time neither rejects a chain nor moves a pole
    four = four_state_spec()
    z.analyze_hitting(z.ChainSpec(n_states=4, rates=four.rates * c, wait_threshold=four.wait_threshold / c))
    spec = z.ChainSpec(n_states=2, rates=np.array([[0.0, c], [2.0 * c, 0.0]]), wait_threshold=1.0 / c)
    got = z.hitting_mgf(spec, 2.0 * c * (1.0 - 1e-10))  # the pole is q10 = 2c
    assert got.finite
    assert got.values[1] == pytest.approx(1e10, rel=1e-5)


def test_hitting_mgf_takes_band_path_on_tridiagonal_interiors(monkeypatch):
    calls = []
    dense = spectral._dense_lu
    monkeypatch.setattr(spectral, "_dense_lu", lambda m, tiny: calls.append(m.shape) or dense(m, tiny))
    rng = np.random.default_rng(7)
    rates = rng.uniform(0.1, 1.0, (100, 100)) * (rng.random((100, 100)) < 0.05)
    rates[np.arange(99), np.arange(1, 100)] = 1.0
    rates[99, 0] = 1.0
    np.fill_diagonal(rates, 0.0)
    split = z.build_birth_death(1.0, 2.0, 30, {1: 1.0})
    cases = [
        (z.build_birth_death(1.0, 2.0, 200, {1: 1.0}), 0),
        (heavy_bd_spec(40), 0),
        (z.ChainSpec(n_states=100, rates=rates), 1),  # random100: dense interior
        # the escape state splits the interior, and the rates left on either side are tridiagonal
        (z.ChainSpec(n_states=31, rates=split.rates, escape_state=15), 0),
    ]
    for spec, dense_calls in cases:
        calls.clear()
        z.hitting_mgf(spec, 0.0)
        assert len(calls) == dense_calls


@pytest.mark.parametrize("spec", [four_state_spec(), z.build_birth_death(1.0, 2.0, 60, {1: 1.0})],
                         ids=["four-state", "bd60"])
def test_phi_reuses_the_factors_of_m0(spec, hitting_mgf_calls, monkeypatch):
    factored = []
    factor = hitting.mmatrix_factor
    monkeypatch.setattr(hitting, "mmatrix_factor", lambda diag, off: factored.append(diag) or factor(diag, off))
    ha = z.analyze_hitting(spec)
    assert len(factored) == 1  # M(0), for beta
    sol = z.solve_phi(spec, ha=ha)
    # every transform but the first at lam = 0 factors its own M(lam)
    assert hitting_mgf_calls[0][1] == 0.0
    assert len(factored) == len(hitting_mgf_calls)
    assert sol.regime == "alpha-positive"
    first = z.hitting_mgf(spec, 0.0, ha.factors)
    fresh = z.hitting_mgf(spec, 0.0)
    assert np.array_equal(first.values, fresh.values) and np.array_equal(first.derivs, fresh.derivs)


def test_band_choice_is_made_once_per_spec(monkeypatch):
    # an escape state mid-interior splits the active states into two runs
    # whose rates are still tridiagonal
    chosen = []
    form = spectral.band_form
    for module in (chain, spectral):
        monkeypatch.setattr(module, "band_form", lambda off: chosen.append(off.shape) or form(off))
    spec = z.ChainSpec(n_states=31, rates=z.build_birth_death(1.0, 2.0, 30, {1: 1.0}).rates, escape_state=25)
    with mock.patch.object(spectral, "_dense_lu", side_effect=AssertionError("left the band path")):
        ha = z.analyze_hitting(spec)
        assert z.solve_phi(spec, ha=ha).regime == "alpha-positive"
        for lam in (0.0, 0.5 * ha.alpha_C, 2.0 * ha.alpha_C):
            z.hitting_mgf(spec, lam)
    assert chosen == [(29, 29)]
    idx, _, off = spec.killed_block
    assert isinstance(off, tuple) and np.array_equal(idx, [*range(1, 25), *range(26, 31)])


def test_long_band_chain_decays_on_the_bands():
    n = 2000
    spec = z.build_birth_death(1.0, 2.0, n, {1: 1.0})
    with mock.patch.object(spectral, "_dense_lu", side_effect=AssertionError("left the band path")):
        alpha = z.analyze_hitting(spec).alpha_C
    mp = mpmath.mp.clone()
    mp.dps = 50
    want = 3 - 2 * mp.sqrt(2) * mp.cos(mp.pi / n)
    assert abs((alpha - want) / want) <= 1e-13


def test_harmonic_vector_bd_residual(recurrent_walk):
    h = z.harmonic_vector_bd(recurrent_walk)
    assert h[0] == 0.0
    assert np.all(np.diff(h[: recurrent_walk.n_states]) > 0)
    q, states = killed_matrix(recurrent_walk)
    resid = q @ h[np.array(states)]
    # harmonicity holds away from the truncation top (the reflecting row is
    # the artifact of cutting the infinite chain)
    for row, state in enumerate(states[:-1]):
        assert abs(resid[row]) <= 1e-10 * max(h[state], 1.0)


def test_harmonic_vector_bd_geometric_growth(recurrent_walk):
    # b=1, d=2: h_i = sum of 2^j below i = 2^i - 1
    h = z.harmonic_vector_bd(recurrent_walk)
    for i in (1, 2, 5, 10):
        assert h[i] == pytest.approx(2.0**i - 1.0, rel=1e-12)


def test_harmonic_vector_with_one_way_chords():
    # no birth-death walk: the chords 5 -> 3 and 6 -> 1 break the band
    spec = chord_bd_spec(12)
    h = z.harmonic_vector_bd(spec)
    assert h[0] == 0.0 and h[1] == 1.0
    q, states = killed_matrix(spec)
    resid = q @ h[np.array(states)]
    for row, state in enumerate(states[:-1]):
        assert abs(resid[row]) <= 1e-12 * h[state]


def test_harmonic_vector_without_escape_state():
    # b_i = d_i: the walk is a martingale, h_i = i; the last state is the top
    h = z.harmonic_vector_bd(heavy_bd_spec(40))
    assert np.max(np.abs(h - np.arange(41)) / np.maximum(np.arange(41), 1)) <= 1e-13
    assert np.array_equal(z.harmonic_vector_bd(single_interior_spec()), [0.0, 1.0])


def test_harmonic_vector_refuses_what_does_not_fit():
    # b=1, d=2 on 0..1100: h_1100 = 2^1100 - 1 is past the double range
    with pytest.raises(NumericError):
        z.harmonic_vector_bd(z.build_birth_death(1.0, 2.0, 1100, {1: 1.0}))
    with pytest.raises(PreconditionError):
        z.harmonic_vector_bd(z.build_birth_death(2.0, 1.0, 60, {1: 1.0}))
    with pytest.raises(PreconditionError):
        z.harmonic_vector_bd(poisson_chain_spec(2.0))
