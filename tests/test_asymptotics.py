"""Return-cycle transform, the root phi, and the limit vectors.

Frozen oracles (independent bisection on the analytic transform of the
single-interior chain, stdlib only):

    phi   = 0.4568423086708965
    I'    = 1.1029797797755787
    kappa = 1.152857802999143

and the transient closed form p0 = ((1-e^-1)/2) / (e^-1 + (1-e^-1)/2).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import zerohold as z
import zerohold.asymptotics as asymptotics
from zerohold.asymptotics import limit_vector_recurrent, limit_vector_transient, return_mgf, solve_phi

from zerohold.errors import IterationError

from conftest import poisson_chain_spec

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
    assert sol.iprime == pytest.approx(IPRIME_ORACLE, abs=1e-8)
    assert sol.kappa == pytest.approx(KAPPA_ORACLE, abs=1e-9)
    assert abs(sol.root_residual) <= 1e-9
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


def test_phi_below_origin_exit_rate(single_interior, four_state):
    # the tilt can never reach q0, or the origin hold density loses mass
    for spec in (single_interior, four_state):
        assert solve_phi(spec).phi < spec.exit_rates[0]


def test_poisson_chain_agrees_with_dedicated_solver():
    for r in (0.5, 1.0, 2.0):
        sol = solve_phi(poisson_chain_spec(r))
        pr = z.poisson_phi(r)
        assert sol.phi == pytest.approx(pr.phi_r, abs=1e-8)


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
