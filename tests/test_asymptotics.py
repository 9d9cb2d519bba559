"""Return-cycle transform, the root phi, and the limit vectors.

Frozen oracles (independent bisection on the analytic transform of the
single-interior chain, stdlib only):

    phi   = 0.4568423086708965
    I'    = 1.1029797797755787
    kappa = 1.152857802999143

and the transient closed form p0 = ((1-e^-1)/2) / (e^-1 + (1-e^-1)/2).
Two-state roots come from mpmath on the closed form of the transform.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerohold as z
import zerohold.asymptotics as asymptotics
from zerohold.asymptotics import limit_vector_recurrent, limit_vector_transient, return_mgf, solve_phi

from zerohold.errors import IterationError

from conftest import four_state_spec, heavy_bd_spec, poisson_chain_spec, single_interior_spec

PHI_ORACLE = 0.4568423086708965
IPRIME_ORACLE = 1.1029797797755787
KAPPA_ORACLE = 1.152857802999143


def test_transform_at_zero_is_short_hold_mass(single_interior, four_state):
    for spec in (single_interior, four_state):
        q0 = spec.exit_rates[0]
        want = 1.0 - math.exp(-q0 * spec.wait_threshold)
        assert return_mgf(spec, 0.0).value == pytest.approx(want, abs=1e-12)


def test_transform_monotone_and_convex(single_interior):
    lams = np.linspace(0.0, 0.44, 12)
    vals = [return_mgf(single_interior, float(l)).value for l in lams]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12)
    assert np.all(np.diff(diffs) >= -1e-10)  # convexity of the exponential moment


def test_solve_phi_single_interior_frozen(single_interior):
    sol = solve_phi(single_interior)
    assert sol.regime == "alpha-positive"
    assert sol.phi == pytest.approx(PHI_ORACLE, abs=1e-9)
    assert sol.root.derivative == pytest.approx(IPRIME_ORACLE, abs=1e-8)
    assert sol.kappa == pytest.approx(KAPPA_ORACLE, abs=1e-9)
    assert abs(sol.root.value - 1.0) <= 1e-9
    assert abs(return_mgf(single_interior, sol.phi).value - 1.0) <= 1e-9


def test_solve_phi_root_residual_everywhere(four_state, recurrent_walk):
    for spec in (four_state, recurrent_walk):
        sol = solve_phi(spec)
        assert abs(return_mgf(spec, sol.phi).value - 1.0) <= 1e-9
        assert 0.0 < sol.phi < z.analyze_hitting(spec).alpha_C


def test_solve_phi_caps_bisection(four_state, monkeypatch):
    monkeypatch.setattr(asymptotics, "_PHI_MAX_ITER", 5)
    with pytest.raises(IterationError):
        solve_phi(four_state)


@pytest.mark.parametrize("up, down", [(30.0, 60.0), (300.0, 600.0)])
def test_tiny_phi_against_mpmath(up, down):
    # I(lam) = expm1((lam - q0) theta) / (lam - q0) * q01 q10 / (q10 - lam) at
    # theta = 1; phi ~ exp(-q0), which an absolute stop would print as its floor
    mp = mpmath.mp.clone()
    mp.dps = 250
    q0, q10 = mp.mpf(up), mp.mpf(down)

    def excess(lam):
        return mp.expm1(lam - q0) / (lam - q0) * q0 * q10 / (q10 - lam) - 1

    root = mp.findroot(excess, mp.exp(-q0) / mp.diff(excess, 0), solver="newton")
    spec = z.ChainSpec(n_states=2, rates=np.array([[0.0, up], [down, 0.0]]), wait_threshold=1.0)
    sol = solve_phi(spec)
    assert sol.regime == "alpha-positive"
    assert abs(sol.phi - root) <= 1e-10 * root


@pytest.mark.parametrize("n", [60, 200], ids=["bd60", "bd200"])
def test_birth_death_phi_and_kappa_against_mpmath(n):
    # b = 1, d = 2, q0 = theta = 1: F_1 is a continued fraction down from the
    # escape state, I(lam) = J(1) F_1(lam) and kappa = e^(phi - 1) / (phi I'(phi));
    # the reported phi is the evaluated point nearest the root, with its own slope
    mp = mpmath.mp.clone()
    mp.dps = 40

    def transform(lam):
        s = 3 - lam
        g = s
        for _ in range(n - 2):
            g = s - 2 / g
        return mp.expm1(lam - 1) / (lam - 1) * 2 / g

    sol = solve_phi(z.build_birth_death(1.0, 2.0, n, {1: 1.0}))
    phi = mp.findroot(lambda lam: transform(lam) - 1, mp.mpf(sol.phi))
    kappa = mp.exp(phi - 1) / (phi * mp.diff(transform, phi))
    assert abs((sol.phi - phi) / phi) <= 1e-14
    assert abs((sol.kappa - kappa) / kappa) <= 1e-11


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=-6.0, max_value=6.0))
def test_phi_scale_covariance_over_twelve_decades(log_c):
    # phi(c Q, theta / c) = c phi(Q, theta): time measured in other units
    c = 10.0**log_c
    base = four_state_spec()
    scaled = z.ChainSpec(n_states=4, rates=base.rates * c, wait_threshold=base.wait_threshold / c)
    assert solve_phi(scaled).phi == pytest.approx(c * solve_phi(base).phi, rel=1e-9)


def _rescaled(spec, c):
    return z.ChainSpec(n_states=spec.n_states, rates=spec.rates * c, wait_threshold=spec.wait_threshold / c,
                       escape_state=spec.escape_state)


@pytest.mark.parametrize("log_c", range(-12, 13))
def test_clock_integral_is_scale_free(log_c, four_state, transient_walk):
    # the clock integral's series branch is chosen on a x, not on a alone: at
    # rates times 1e-9 the rate a is below 1e-8 while a x is of order one
    c = 10.0**log_c
    base, sol = solve_phi(four_state), solve_phi(_rescaled(four_state, c))
    assert sol.phi / c == pytest.approx(base.phi, rel=1e-13)
    assert sol.kappa == pytest.approx(base.kappa, rel=1e-13)
    origin = limit_vector_recurrent(_rescaled(four_state, c), sol).origin(0.3 / c)
    assert origin == pytest.approx(limit_vector_recurrent(four_state, base).origin(0.3), rel=1e-13)
    origin = limit_vector_transient(_rescaled(transient_walk, c)).origin(0.5 / c)
    assert origin == pytest.approx(limit_vector_transient(transient_walk).origin(0.5), rel=1e-13)


def _mp_root(spec, guess):
    """The root of I = 1 at 50 digits: M(lam) F = r by elimination over its nonzeros, then J(theta) S."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    idx = [i for i in spec.interior_states() if i != spec.escape_state]
    q = [[mp.mpf(float(x)) for x in row] for row in spec.rates]
    out = [mp.fsum(x for j, x in enumerate(row) if j != i) for i, row in enumerate(q)]

    def excess(lam):
        rows = [{j: -q[a][b] for j, b in enumerate(idx) if b != a and q[a][b]} for a in idx]
        for k, a in enumerate(idx):
            rows[k][k] = out[a] - lam
        f = [q[a][0] for a in idx]
        for k in range(len(idx)):
            for i in range(k + 1, len(idx)):
                if k in rows[i]:
                    mult = rows[i].pop(k) / rows[k][k]
                    for j, x in rows[k].items():
                        if j > k:
                            rows[i][j] = rows[i].get(j, 0) - mult * x
                    f[i] -= mult * f[k]
        for k in reversed(range(len(idx))):
            f[k] = (f[k] - mp.fsum(x * f[j] for j, x in rows[k].items() if j > k)) / rows[k][k]
        s = q[0][0] + mp.fsum(q[0][a] * fa for a, fa in zip(idx, f))
        a = lam - out[0] - q[0][0]
        return mp.expm1(a * spec.wait_threshold) / a * s - 1

    return mp.findroot(excess, mp.mpf(guess), tol=mp.mpf(10) ** -45)


def _dense_four_state():
    # four-state with its interior relabelled 1, 2, 3 -> 3, 1, 2: the chain 1 - 2 - 3
    # becomes 3 - 1 - 2, whose block is not tridiagonal
    base, perm = four_state_spec(), [0, 3, 1, 2]
    rates = np.zeros((4, 4))
    rates[np.ix_(perm, perm)] = base.rates
    return z.ChainSpec(n_states=4, rates=rates, wait_threshold=base.wait_threshold)


@pytest.mark.parametrize("spec", [
    z.build_birth_death(1.0, 2.0, 60, {1: 1.0}),
    z.build_birth_death(1.0, 2.0, 200, {1: 1.0}),
    heavy_bd_spec(40),
    single_interior_spec(),
    _dense_four_state(),
], ids=["bd60", "bd200", "heavy40", "single-interior", "four-state-dense"])
def test_phi_against_fifty_digits(spec):
    sol = solve_phi(spec)
    want = _mp_root(spec, sol.phi)
    assert abs((sol.phi - want) / want) <= 1e-13


@pytest.mark.parametrize("spec, most", [
    (z.build_birth_death(1.0, 2.0, 200, {1: 1.0}), 10),
    (heavy_bd_spec(40), 6),
], ids=["bd200", "heavy40"])
def test_solve_phi_factors_few_transforms(spec, most, hitting_mgf_calls):
    # the first transform, at 0, reuses the factors of M(0); every other one factors M(lam)
    solve_phi(spec)
    assert len([args for args in hitting_mgf_calls if len(args) < 3]) <= most


@pytest.mark.parametrize("spec, most", [
    (single_interior_spec(), 12),
    (four_state_spec(), 12),
    (poisson_chain_spec(2.0), 12),
    (z.build_birth_death(1.0, 2.0, 200, {1: 1.0}), 32),
], ids=["single-interior", "four-state", "poisson-2", "bd200"])
def test_solve_phi_transform_count(spec, most, monkeypatch):
    calls = []
    monkeypatch.setattr(asymptotics, "return_mgf", lambda s, lam: calls.append(lam) or return_mgf(s, lam))
    assert solve_phi(spec).regime == "alpha-positive"
    assert len(calls) <= most


def test_phi_below_origin_exit_rate(single_interior, four_state):
    # the tilt can never reach q0, or the origin hold density loses mass
    for spec in (single_interior, four_state):
        assert solve_phi(spec).phi < spec.exit_rates[0]


def test_poisson_chain_agrees_with_dedicated_solver():
    for r in (0.5, 1.0, 2.0):
        sol = solve_phi(poisson_chain_spec(r))
        pr = z.poisson_phi(r)
        assert sol.phi == pytest.approx(pr.phi_r, abs=1e-8)


@pytest.mark.parametrize("y", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.49, 0.5, 0.7, 1.0, 3.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("theta", [1.0, 0.25])
def test_clock_integral_slope_against_mpmath(y, sign, theta):
    # integral_0^theta v exp(a v) dv at a theta = +-y; its closed form cancels to 122 % at 1e-8
    a = sign * y / theta
    mp = mpmath.mp.clone()
    mp.dps = 40
    am, tm = mp.mpf(a), mp.mpf(theta)
    want = ((am * tm - 1) * mp.exp(am * tm) + 1) / (am * am)
    assert asymptotics._j_integral_da(theta, a) == pytest.approx(float(want), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r", [1 - 1e-7, 1 + 1e-7, 1 - 1e-5, 1 + 1e-5, 1 - 1e-3, 1 + 1e-3])
def test_poisson_chain_kappa_near_the_double_root(r):
    # phi - q0 is within 1e-3 of zero here, where kappa rests on the slope of the clock integral
    sol = solve_phi(poisson_chain_spec(r))
    assert sol.kappa == pytest.approx(z.poisson_phi(r).c_r, rel=1e-12, abs=0.0)


def test_limit_vector_reads_the_root_transform(four_state, hitting_mgf_calls):
    sol = solve_phi(four_state)
    del hitting_mgf_calls[:]
    lv = limit_vector_recurrent(four_state, sol)
    assert hitting_mgf_calls == []
    assert np.array_equal(lv.values[1:], sol.root.mgf.values[1:] * sol.kappa)
    assert sol.root.lam == sol.phi


def test_scale_covariance(four_state):
    c = 3.7
    sol1 = solve_phi(four_state)
    lv1 = limit_vector_recurrent(four_state, sol1)
    scaled = z.ChainSpec(
        n_states=four_state.n_states,
        rates=four_state.rates * c,
        wait_threshold=four_state.wait_threshold / c,
    )
    sol2 = solve_phi(scaled)
    lv2 = limit_vector_recurrent(scaled, sol2)
    assert sol2.phi == pytest.approx(c * sol1.phi, rel=1e-8)
    assert np.allclose(lv2.values, lv1.values, rtol=1e-8)


def test_recurrent_limit_vector(single_interior):
    sol = solve_phi(single_interior)
    lv = limit_vector_recurrent(single_interior, sol)
    assert lv.provenance == "recurrent"
    assert lv.phi == sol.phi
    # the origin entry is the plateau constant itself
    assert lv.values[0] == pytest.approx(sol.kappa, rel=1e-12)
    assert lv.origin(0.0) == pytest.approx(lv.values[0], rel=1e-12)
    assert np.all(lv.values > 0.0)


def test_transient_limit_vector_fixed_points(transient_walk):
    lv = limit_vector_transient(transient_walk)
    beta = z.never_hit_prob(transient_walk)
    p = lv.values
    assert lv.provenance == "transient"
    assert lv.phi == 0.0

    p0_closed = ((1 - math.exp(-1)) / 2) / (math.exp(-1) + (1 - math.exp(-1)) / 2)
    assert p[0] == pytest.approx(p0_closed, abs=1e-9)
    assert p[1] == pytest.approx(0.5 + p0_closed / 2, abs=1e-9)

    # the two displayed fixed-point identities
    for i in (1, 2, 10, 30):
        assert p[i] == pytest.approx(beta[i] + (1 - beta[i]) * p[0], abs=1e-10)
    q0 = transient_walk.exit_rates[0]
    theta = transient_walk.wait_threshold
    mix = sum(
        transient_walk.rates[0, j] / q0 * p[j]
        for j in range(1, transient_walk.n_states)
        if transient_walk.rates[0, j] > 0
    )
    assert p[0] == pytest.approx((1 - math.exp(-q0 * theta)) * mix, abs=1e-10)


def test_transient_origin_clock_value(transient_walk):
    lv = limit_vector_transient(transient_walk)
    p = lv.values
    assert lv.origin(0.0) == pytest.approx(p[0], rel=1e-12)
    # deeper into the hold the threshold is closer, so the probability of
    # never completing it falls: p(0,u) = (1 - e^{-q0(theta-u)}) sum q0j/q0 p_j
    q0 = transient_walk.exit_rates[0]
    theta = transient_walk.wait_threshold
    mix = sum(
        transient_walk.rates[0, j] / q0 * p[j]
        for j in range(1, transient_walk.n_states)
        if transient_walk.rates[0, j] > 0
    )
    for u in (0.1, 0.5, 0.9):
        want = (1.0 - math.exp(-q0 * (theta - u))) * mix
        assert lv.origin(u) == pytest.approx(want, abs=1e-10)
    assert lv.origin(0.9) < lv.origin(0.1)
