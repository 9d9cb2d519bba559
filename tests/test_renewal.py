"""Renewal-equation solver against closed forms.

For the single-interior chain (q0=1 into state 1, q1=2 back) the defective
first-renewal density has no atom and the explicit form

    g(t) = 2 e^{-2t} (e^{min(t,theta)} - 1),

a plain convolution of the origin hold (rate 1, censored at theta) with the
excursion (rate 2).  For the one-state self-rate chain with r=1 the density
is the pure atom e^{-t} on t < 1 and the scaled survival e^t s(t) tends to 2.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

import zerohold as z
from zerohold import renewal
from zerohold.errors import PreconditionError

from conftest import heavy_bd_spec, poisson_chain_spec, single_interior_spec


def _g_single(t: float, theta: float = 1.0) -> float:
    return 2.0 * math.exp(-2.0 * t) * (math.exp(min(t, theta)) - 1.0)


def test_survival_curve_basics(single_interior):
    curve = z.solve_renewal(single_interior, 20.0, 0.01)
    s = curve.values
    assert s[0] == 1.0
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(np.diff(s) <= 1e-15)
    assert curve.start.state == 0 and curve.start.clock == 0.0
    assert curve.t[1] == pytest.approx(0.01)


def test_g_density_closed_form(single_interior):
    for t in (0.3, 0.9, 1.0, 2.5, 7.0):
        assert z.g_density(single_interior, t) == pytest.approx(_g_single(t), abs=1e-8)


def test_g_density_exact(single_interior):
    for t in (0.3, 0.9, 1.0, 2.5, 7.0, 20.0):
        assert z.g_density(single_interior, t) == pytest.approx(_g_single(t), rel=1e-13)


def test_g_density_atom_for_self_rate_chain():
    spec = poisson_chain_spec(1.0)
    # all mass is the censored origin hold itself
    assert z.g_density(spec, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-10)
    assert z.g_density(spec, 1.5) == 0.0


def test_g_integral_reaches_transform_at_zero(single_interior):
    curve = z.solve_renewal(single_interior, 30.0, 0.01)
    want = z.return_mgf(single_interior, 0.0).value  # 1 - e^{-1}
    assert curve.g_integral[-1] == pytest.approx(want, abs=1e-5)


def test_jump_at_threshold(single_interior):
    dt = 0.01
    curve = z.solve_renewal(single_interior, 5.0, dt)
    k = round(single_interior.wait_threshold / dt)
    drop = curve.values[k - 1] - curve.values[k]
    jump = math.exp(-1.0)  # P(tau = theta): survive the whole first hold
    assert jump <= drop <= jump + 5 * dt


def test_second_order_convergence(single_interior):
    # dt halving should shrink the error by about 4
    vals = {}
    for dt in (0.02, 0.01, 0.005):
        curve = z.solve_renewal(single_interior, 5.0, dt)
        vals[dt] = curve.values[round(5.0 / dt)]
    d1 = vals[0.02] - vals[0.01]
    d2 = vals[0.01] - vals[0.005]
    assert d1 / d2 == pytest.approx(4.0, abs=1.0)


def test_jump_nodes_second_order_with_self_jump():
    # Poisson r = 1: s(theta) = 1 - e^{-1} and s(2 theta) = 1 - 2 e^{-1}; the
    # atom's cutoff and the jump of s both land on these nodes
    spec = poisson_chain_spec(1.0)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        curve = z.solve_renewal(spec, 2.0, dt)
        k = round(1.0 / dt)
        errs.append((curve.values[k] - (1.0 - math.exp(-1.0)),
                     curve.values[2 * k] - (1.0 - 2.0 * math.exp(-1.0))))
    for node in (0, 1):
        assert abs(errs[0][node]) < 1e-4
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse[node] / fine[node] == pytest.approx(4.0, abs=1.0)


def _cycle_direct(spec, t):
    # direct expm of the cycle generator, the hold's mass removed at theta
    b = renewal._cycle_generator(spec)
    x = expm(b * min(t, spec.wait_threshold))[0]
    if t > spec.wait_threshold:
        x[0] = 0.0
        x = x @ expm(b * (t - spec.wait_threshold))
    return x @ b[:, -1], x[:-1].sum(), x[-1]


@pytest.mark.parametrize("spec", [heavy_bd_spec(40), z.build_birth_death(1.0, 2.0, 60, {1: 1.0})],
                         ids=["heavy40", "bd60"])
def test_excursion_kernels_match_direct_expm(spec):
    step, count = 0.005, 8000
    kernels = renewal._first_cycle(spec, 0, step, count, spec.wait_threshold)
    assert all(np.all(k >= 0.0) for k in kernels)
    for m in (1, 63, 64, 65, 4097, count):
        got = tuple(k[m] for k in kernels)
        assert got == pytest.approx(_cycle_direct(spec, m * step), rel=1e-12)


def test_interior_lift_propagates_exactly(four_state):
    base = z.solve_renewal(four_state, 40.0, 0.01)
    lifted = z.lift_survival(four_state, base, z.AugmentedState(2))
    hit_rate, not_hit, _ = renewal._first_cycle(four_state, 2, 0.01, 4000, 0.0)
    assert np.all(not_hit >= 0.0) and np.all(hit_rate >= 0.0)
    gen = z.killed_generator(four_state)
    semigroup = expm(gen.matrix * 40.0)[gen.states.index(2)]
    assert not_hit[-1] == pytest.approx(semigroup.sum(), rel=1e-12)
    assert hit_rate[-1] == pytest.approx(semigroup @ four_state.rates[1:, 0], rel=1e-12)
    assert lifted.values[-1] >= not_hit[-1]


def _self_jump_spec():
    return z.parse_spec('{"n_states": 2, "rates": [[0, 0, 0.5], [0, 1, 1.0], [1, 0, 2.0]], "wait_threshold": 1.0}')


@pytest.mark.parametrize("spec", [single_interior_spec(), _self_jump_spec()], ids=["single", "self-jump"])
def test_interior_lift_is_one_through_theta(spec):
    # from an interior start the first hold begins after t = 0, so none completes by theta
    for dt in (0.02, 0.01):
        lifted = z.lift_survival(spec, z.solve_renewal(spec, 2.0, dt), z.AugmentedState(1))
        k = round(1.0 / dt)
        assert np.all(lifted.values[: k + 1] == 1.0)
        assert lifted.values[k + 1] < 1.0


def test_origin_clock_lift_second_order_with_self_jump():
    # from 0:u the first hold completes at theta - u with probability e^{-q0 (theta - u)}, and
    # no other hold can complete before theta, so s_u = 1 - e^{-q0 (theta - u)} on [theta - u, theta]
    spec, u = _self_jump_spec(), 0.3
    exact = 1.0 - math.exp(-1.5 * (1.0 - u))
    errs = []
    for dt in (0.02, 0.01, 0.005):
        lifted = z.lift_survival(spec, z.solve_renewal(spec, 2.0, dt), z.AugmentedState(0, u))
        errs.append(lifted.at([1.0 - u, 1.0]) - exact)
    assert np.all(np.abs(errs[0]) < 2e-4)
    for coarse, fine in zip(errs, errs[1:]):
        np.testing.assert_allclose(coarse / fine, 4.0, atol=1.0)


@pytest.mark.parametrize("u", [0.305, 0.3051, 0.3127])
def test_origin_clock_lift_off_grid_cutoff(u):
    # theta - u between nodes: the self-jump covers only part of its cell, and on
    # (theta - u, theta] the exact value is 1 - e^{-q0 (theta - u)}
    spec = _self_jump_spec()
    exact = 1.0 - math.exp(-1.5 * (1.0 - u))
    for dt in (0.02, 0.01, 0.005, 0.0025):
        lifted = z.lift_survival(spec, z.solve_renewal(spec, 1.0, dt), z.AugmentedState(0, u))
        after = (lifted.t > 1.0 - u) & (lifted.t <= 1.0 + 1e-12)
        assert np.max(np.abs(lifted.values[after] - exact)) <= 0.5 * dt**2


def test_plateau_on_alpha_positive_spec(single_interior):
    sol = z.solve_phi(single_interior)
    t_max = 60.0
    curve = z.solve_renewal(single_interior, t_max, 0.01)
    scaled = np.exp(sol.phi * curve.t) * curve.values
    last_quarter = scaled[3 * len(scaled) // 4 :]
    assert last_quarter.max() / last_quarter.min() - 1.0 < 0.01
    assert last_quarter.mean() == pytest.approx(sol.kappa, abs=1e-3)


def test_poisson_scaled_limit():
    spec = poisson_chain_spec(1.0)
    curve = z.solve_renewal(spec, 25.0, 0.01)
    t = 25.0
    assert math.exp(t) * curve.at([t])[0] == pytest.approx(2.0, abs=5e-3)


def test_lift_at_zero_clock_reproduces_base(single_interior):
    base = z.solve_renewal(single_interior, 10.0, 0.01)
    lifted = z.lift_survival(single_interior, base, z.AugmentedState(0, 0.0))
    assert np.allclose(lifted.values, base.values, atol=1e-10)


def test_lift_deep_clock_nearly_done(single_interior):
    base = z.solve_renewal(single_interior, 10.0, 0.01)
    lifted = z.lift_survival(single_interior, base, z.AugmentedState(0, 0.98))
    # hold nearly complete: survival past a few units is tiny compared to fresh
    assert lifted.values[0] == 1.0
    assert lifted.at([5.0])[0] < 0.2 * base.at([5.0])[0]


def test_lift_interior_start_monotone(single_interior):
    base = z.solve_renewal(single_interior, 10.0, 0.01)
    lifted = z.lift_survival(single_interior, base, z.AugmentedState(1))
    s = lifted.values
    assert s[0] == 1.0
    assert np.all(np.diff(s) <= 1e-15)
    assert np.all(s >= base.values - 1e-12)  # starting away from 0 only delays tau


def test_interior_lift_scaled_limit(single_interior):
    # e^{phi t} s_1(t) must plateau at the interior limit value p_1
    sol = z.solve_phi(single_interior)
    lv = z.limit_vector_recurrent(single_interior, sol)
    base = z.solve_renewal(single_interior, 40.0, 0.01)
    lifted = z.lift_survival(single_interior, base, z.AugmentedState(1))
    t = 35.0
    assert math.exp(sol.phi * t) * lifted.at([t])[0] == pytest.approx(lv.values[1], abs=2e-3)


def test_origin_clock_lift_scaled_limit(single_interior):
    sol = z.solve_phi(single_interior)
    lv = z.limit_vector_recurrent(single_interior, sol)
    base = z.solve_renewal(single_interior, 40.0, 0.01)
    u = 0.5
    lifted = z.lift_survival(single_interior, base, z.AugmentedState(0, u))
    t = 35.0
    assert math.exp(sol.phi * t) * lifted.at([t])[0] == pytest.approx(lv.origin(u), abs=2e-3)


def test_at_interpolates_and_checks_bounds(single_interior):
    curve = z.solve_renewal(single_interior, 5.0, 0.01)
    mid = curve.at([0.005])[0]
    assert curve.values[1] <= mid <= curve.values[0]
    with pytest.raises(PreconditionError):
        curve.at([6.0])


def test_grid_preconditions(single_interior):
    with pytest.raises(PreconditionError):
        z.solve_renewal(single_interior, 10.0, 0.3)  # dt too coarse vs theta
    with pytest.raises(PreconditionError):
        z.solve_renewal(single_interior, 10.0, 0.013)  # theta off the grid
    with pytest.raises(PreconditionError):
        z.lift_survival(
            single_interior,
            z.solve_renewal(single_interior, 5.0, 0.01),
            z.AugmentedState(0, 1.0),  # clock at the threshold
        )


def test_csv_export(single_interior):
    curve = z.solve_renewal(single_interior, 2.0, 0.02)
    text = z.curve_to_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "t,s,scaled_s"
    assert len(lines) == len(curve.values) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    sol = z.solve_phi(single_interior)
    scaled = z.curve_to_csv(curve, phi=sol.phi).strip().splitlines()
    t3, s3, sc3 = (float(x) for x in scaled[3].split(","))
    assert sc3 == pytest.approx(math.exp(sol.phi * t3) * s3, rel=1e-9)
