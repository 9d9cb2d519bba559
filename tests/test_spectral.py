"""Killed-generator algebra: solves, decay rates, semigroup action.

Decay-rate oracles come from the symmetric-tridiagonal closed form for
birth-death truncations with an absorbing top, alpha(N) = (b+d) -
2*sqrt(b*d)*cos(pi/N), and from dense eigensolves on small matrices.
"""

from __future__ import annotations

import math
import warnings
from unittest import mock

import mpmath

import numpy as np
import pytest
import scipy.linalg

import zerohold as z
import zerohold.spectral as spectral
from zerohold.errors import NumericError, PreconditionError, SingularMatrixError

from conftest import (
    chord_bd_spec,
    four_state_spec,
    generator_block,
    heavy_bd_spec,
    killed_matrix,
    poisson_chain_spec,
    single_interior_spec,
)


def _bd_dirichlet_alpha(b: float, d: float, n: int) -> float:
    return (b + d) - 2.0 * math.sqrt(b * d) * math.cos(math.pi / n)


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
    assert z.perron_decay(*spec.killed_block[1:]) == pytest.approx(2.0, abs=1e-12)


def test_perron_decay_small_chain_matches_dense_eig(four_state):
    alpha = z.perron_decay(*four_state.killed_block[1:])
    eigs = np.linalg.eigvals(killed_matrix(four_state)[0])
    assert alpha == pytest.approx(min(-eigs.real), abs=1e-9)
    assert alpha > 0.0


def test_perron_decay_closed_form_dirichlet():
    for b, d, n in ((1.0, 2.0, 25), (1.0, 2.0, 50), (2.0, 3.0, 30), (1.0, 1.0, 40)):
        spec = z.build_birth_death(b, d, n, {1: 1.0})
        alpha = z.perron_decay(*spec.killed_block[1:])
        assert alpha == pytest.approx(_bd_dirichlet_alpha(b, d, n), rel=1e-10)


def test_perron_decay_survives_strong_drift():
    # the raw matrix is similar to a symmetric one only through a 2^N-graded
    # scaling; its pseudospectrum makes shifted solves singular far from the
    # spectrum, so the band pairs must be replaced by their geometric means
    for n in (100, 200):
        spec = z.build_birth_death(1.0, 2.0, n, {1: 1.0})
        alpha = z.perron_decay(*spec.killed_block[1:])
        assert alpha == pytest.approx(_bd_dirichlet_alpha(1.0, 2.0, n), rel=1e-9)


def test_perron_decay_long_drifting_chain_does_not_overflow():
    # the drift grades the raw Perron vector by 2^(n/2), far past the double
    # range; the geometric means of the band pairs carry no grading
    n = 2100
    spec = z.build_birth_death(1.0, 2.0, n, {1: 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha = z.perron_decay(*spec.killed_block[1:])
    assert (math.sqrt(2.0) - 1.0) ** 2 < alpha <= _bd_dirichlet_alpha(1.0, 2.0, 2040)
    assert alpha == pytest.approx(_bd_dirichlet_alpha(1.0, 2.0, n), rel=1e-9)


def test_perron_decay_long_drifting_chain_to_the_last_digits():
    # the closed form at 50 digits; the shifted solves run on the three bands
    n = 2100
    mp = mpmath.mp.clone()
    mp.dps = 50
    want = 3 - 2 * mp.sqrt(2) * mp.cos(mp.pi / n)
    alpha = z.perron_decay(*z.build_birth_death(1.0, 2.0, n, {1: 1.0}).killed_block[1:])
    assert abs((alpha - want) / want) <= 1e-14


@pytest.mark.parametrize("n, want", [
    (80, 0.17482101040603479439),
    (200, 0.17226214018870307241),
], ids=["chord80", "chord200"])
def test_perron_decay_drifting_chain_with_one_way_chords(n, want):
    # the chords make the block dense, so it runs as it stands and keeps the
    # drift's grading: pivoted LU put alpha 7e-6 off at n = 80 and reported
    # singular shifts at n = 200, while unpivoted elimination of the
    # M-matrix is componentwise accurate.  Values from a 40-digit eigensolve.
    alpha = z.perron_decay(*chord_bd_spec(n).killed_block[1:])
    assert abs(alpha - want) <= 1e-13 * want


@pytest.mark.parametrize("n", range(12, 17))
def test_chord_fixture_joins_interior_states(n):
    # below n = 16 the second chord's target n//2 - 7 would be the escape state or the origin
    spec = chord_bd_spec(n)
    chords = np.argwhere(spec.rates != z.build_birth_death(1.0, 2.0, n, {1: 1.0}).rates)
    assert len(chords) == 2
    assert np.all((chords >= 1) & (chords < spec.escape_state))


def test_perron_decay_solves_tridiagonal_chains_on_the_bands():
    block = z.build_birth_death(1.0, 2.0, 200, {1: 1.0}).killed_block
    with mock.patch.object(spectral, "_dense_lu", side_effect=AssertionError("dense factorization")):
        assert z.perron_decay(*block[1:]) > 0.0


@pytest.mark.parametrize("escape", [15, 25])
def test_perron_decay_split_bands_match_dense_eig(escape):
    # an escape state mid-interior zeroes one band pair: two decoupled runs
    spec = z.ChainSpec(n_states=31, rates=z.build_birth_death(1.0, 2.0, 30, {1: 1.0}).rates, escape_state=escape)
    _, diag, off = spec.killed_block
    assert isinstance(off, tuple) and off[0][escape - 2] == off[1][escape - 2] == 0.0
    want = min(-np.linalg.eigvals(killed_matrix(spec, drop_escape=True)[0]).real)
    assert abs(z.perron_decay(diag, off) - want) <= 1e-12 * want


def _reversible_graded_spec(n: int) -> z.ChainSpec:
    # the b=1, d=2 truncation plus jumps i -> i+2 at 0.5 and back at 2.0:
    # detailed balance with pi_i ~ 2^-i, and a block that is not tridiagonal
    rates = z.build_birth_death(1.0, 2.0, n, {1: 1.0}).rates.copy()
    for i in range(1, n - 1):
        rates[i, i + 2] += 0.5
        rates[i + 2, i] += 2.0
    return z.ChainSpec(n_states=n + 1, rates=rates, escape_state=n)


@pytest.mark.parametrize("n", [60, 200])
def test_perron_decay_reversible_graded_dense_chain(n):
    # the dense block runs with its 2^(n/2) grading; the symmetric matrix
    # diag - sqrt(off * off^T) is similar to it by detailed balance
    _, diag, off = _reversible_graded_spec(n).killed_block
    assert isinstance(off, np.ndarray)
    rates = off - np.diag(np.diag(off))
    want = scipy.linalg.eigvalsh(np.diag(diag) - np.sqrt(rates * rates.T))[0]
    assert abs(z.perron_decay(diag, off) - want) <= 1e-12 * want


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
    alpha = z.perron_decay(*spec.killed_block[1:])
    eigs = np.linalg.eigvals(killed_matrix(spec)[0])
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
        alpha = z.perron_decay(*generator_block(q))
        eigs = np.linalg.eigvals(q)
        assert alpha == pytest.approx(min(-eigs.real), rel=1e-9)


def test_perron_decay_is_scale_covariant(four_state):
    # every tolerance is relative to the rates, so slow chains keep their digits
    ring = np.zeros((4, 4))
    ring[0, 1], ring[1, 2], ring[2, 3], ring[3, 1] = 1.0, 2.0, 1.5, 0.7
    ring[1, 0], ring[2, 0], ring[3, 0] = 0.5, 0.3, 0.4
    for spec in (four_state, z.ChainSpec(n_states=4, rates=ring, wait_threshold=1.0)):
        want = min(-np.linalg.eigvals(killed_matrix(spec)[0]).real)
        _, diag, off = spec.killed_block  # four-state's is bands, the ring's dense
        for c in (1e-9, 1e-7, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
            scaled = off * c if isinstance(off, np.ndarray) else tuple([v * c for v in band] for band in off)
            assert z.perron_decay(diag * c, scaled) == pytest.approx(c * want, rel=1e-10), c


def test_perron_decay_monotone_in_killing():
    base = four_state_spec()
    alpha0 = z.perron_decay(*base.killed_block[1:])
    bumped = base.rates.copy()
    bumped[2, 0] = 0.5  # extra direct route into the origin
    spec2 = z.ChainSpec(n_states=4, rates=bumped, wait_threshold=0.8)
    alpha1 = z.perron_decay(*spec2.killed_block[1:])
    assert alpha1 >= alpha0 - 1e-12


def test_expm_action_leaks_only_into_the_origin(four_state):
    # to first order in t, mass leaves state i at its rate into the origin
    # (1.0 from state 1, none from 2, 0.3 from 3) and nowhere else
    t = 1e-6
    got = z.expm_action(four_state, np.ones(3), t)
    assert np.allclose(got, 1.0 - t * np.array([1.0, 0.0, 0.3]), rtol=0.0, atol=1e-11)


def test_expm_action_keeps_the_escape_state():
    spec = z.build_birth_death(1.0, 2.0, 10, {1: 1.0})
    q, states = killed_matrix(spec)
    assert states == tuple(range(1, 11)) and spec.escape_state == 10
    v = np.linspace(1.0, 0.1, 10)
    for t in (0.5, 3.0):
        assert np.allclose(z.expm_action(spec, v, t), scipy.linalg.expm(q * t) @ v, rtol=1e-12, atol=1e-15)


def test_expm_action_needs_a_state_away_from_the_origin():
    with pytest.raises(PreconditionError):
        z.expm_action(poisson_chain_spec(1.0), np.ones(0), 1.0)


def test_expm_action_matches_scipy(four_state):
    q, _ = killed_matrix(four_state)
    v = np.array([1.0, 0.5, 0.25])
    for t in (0.1, 1.0, 4.0):
        want = scipy.linalg.expm(q * t) @ v
        got = z.expm_action(four_state, v, t)
        assert np.allclose(got, want, atol=1e-8)


def test_expm_action_semigroup(four_state):
    v = np.array([0.2, 1.0, 0.7])
    via_two = z.expm_action(four_state, z.expm_action(four_state, v, 0.8), 1.3)
    direct = z.expm_action(four_state, v, 2.1)
    assert np.allclose(via_two, direct, atol=1e-8)


def test_expm_action_identity_at_zero(four_state):
    v = np.array([0.3, 0.6, 0.9])
    assert np.array_equal(z.expm_action(four_state, v, 0.0), v)


def test_expm_action_rejects_negative_time(four_state):
    with pytest.raises(PreconditionError):
        z.expm_action(four_state, np.ones(3), -1.0)


def test_expm_action_preserves_substochastic(four_state):
    out = z.expm_action(four_state, np.ones(3), 2.0)
    assert np.all(out >= -1e-12)
    assert np.all(out <= 1.0 + 1e-12)


def _renewal_step(spec: z.ChainSpec, dt: float) -> np.ndarray:
    # the renewal solver's augmented step: dt L^T, the hold's -q0 dt, and the
    # shift that carries phi_1..phi_4 of both applied to [e_0; 1]
    n = spec.n_states
    out = np.zeros((n + 5, n + 5))
    out[:n, :n] = dt * (spec.rates - np.diag(spec.exit_rates)).T
    out[n, n] = -spec.exit_rates[0] * dt
    out[[0, n], n + 1] = 1.0
    out[np.arange(n + 1, n + 4), np.arange(n + 2, n + 5)] = 1.0
    return out


def _exp_error(a: np.ndarray, got: np.ndarray) -> float:
    """1-norm error of ``got`` against a 40-digit ``exp(a)``, in units of eps times the 1-norm of ``exp(a)``."""
    n = len(a)
    got = got.tolist()
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix(a.tolist()))
        err = max(sum(abs(got[i][j] - exact[i, j]) for i in range(n)) for j in range(n))
        size = max(sum(abs(exact[i, j]) for i in range(n)) for j in range(n))
        return float(err / size) / np.finfo(float).eps


@pytest.mark.parametrize("spec, dt", [
    (single_interior_spec(), 0.02),
    (four_state_spec(), 0.01),
    (poisson_chain_spec(1.0), 0.01),
    (heavy_bd_spec(40), 0.02),
], ids=["single", "four", "poisson", "heavy40"])
def test_metzler_exp_renewal_steps_to_two_eps(spec, dt):
    a = _renewal_step(spec, dt)
    got = spectral.metzler_exp(a)
    assert np.all(got >= 0.0)
    assert _exp_error(a, got) <= 2.0


def test_metzler_exp_fast_rates_to_ten_eps():
    # rates x 1e4 put the 1-norm at 320: six squarings
    four = four_state_spec()
    a = _renewal_step(z.ChainSpec(4, four.rates * 1e4, four.wait_threshold), 0.01)
    got = spectral.metzler_exp(a)
    assert np.all(got >= 0.0)
    assert _exp_error(a, got) <= 10.0


@pytest.mark.parametrize("scale", [1.0, 100.0], ids=["series", "squared"])
def test_metzler_exp_keeps_a_zero_diagonal_exact(scale):
    # an upper-triangular Metzler matrix: its exponential has e^0 = 1 exactly
    # where the diagonal is zero, as the renewal step of a chain whose origin
    # only jumps to itself needs
    a = scale * np.array([[0.0, 1.0, 0.5, 0.0], [0.0, -0.3, 2.0, 1.0], [0.0, 0.0, 0.0, 0.7], [0.0, 0.0, 0.0, -1.0]])
    got = spectral.metzler_exp(a)
    assert got[0, 0] == 1.0 and got[2, 2] == 1.0
    assert np.array_equal(got, np.triu(got))
    assert np.allclose(got, scipy.linalg.expm(a), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_metzler_exp_rejects_a_non_finite_norm(bad):
    a = np.array([[-1.0, 1.0], [bad, -1.0]])
    with pytest.raises(NumericError):
        spectral.metzler_exp(a)
