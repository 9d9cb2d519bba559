"""Renewal-equation solver against closed forms.

For the single-interior chain (q0=1 into state 1, q1=2 back) the first cycle
is the origin hold (rate 1, censored at theta) followed by the excursion
(rate 2), so the Laplace transform of the survival curve is explicit.  For
the one-state self-rate chain with r=1 the first cycle is the censored hold
alone and the scaled survival e^t s(t) tends to 2.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import zerohold as z
from zerohold import renewal
from zerohold.errors import NumericError, PreconditionError

from conftest import four_state_spec, heavy_bd_spec, killed_matrix, poisson_chain_spec, single_interior_spec


def _s_hat_poisson(lam):
    # Poisson r = 1: A^ = J and g^ = J with J = (1 - e^{-(1 + lam)}) / (1 + lam)
    j = (1 - mpmath.exp(-(lam + 1))) / (lam + 1)
    return j / (1 - j)


def _s_hat_single(lam):
    # single-interior: A^ = J (1 + 1 / (2 + lam)) and g^ = 2 J / (2 + lam)
    j = (1 - mpmath.exp(-(lam + 1))) / (lam + 1)
    return j * (1 + 1 / (2 + lam)) / (1 - 2 * j / (2 + lam))


def test_survival_curve_basics(single_interior):
    curve = z.solve_renewal(single_interior, 20.0, 0.01)
    s = curve.values
    assert s[0] == 1.0
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(np.diff(s) <= 1e-15)
    assert curve.start.state == 0 and curve.start.clock == 0.0
    assert curve.t[1] == pytest.approx(0.01)


def test_jump_at_threshold(single_interior):
    dt = 0.01
    curve = z.solve_renewal(single_interior, 5.0, dt)
    k = round(single_interior.wait_threshold / dt)
    drop = curve.values[k - 1] - curve.values[k]
    jump = math.exp(-1.0)  # P(tau = theta): survive the whole first hold
    assert jump <= drop <= jump + 5 * dt


def test_second_order_convergence(single_interior):
    # the delay form is fourth order; each bound is below the second-order
    # march's error at that dt (2.2e-5, 5.5e-6 and 1.4e-6)
    with mpmath.workdps(30):
        exact = float(mpmath.invertlaplace(_s_hat_single, 5.0, method="dehoog"))
    for dt, bound in ((0.02, 1e-10), (0.01, 1e-11), (0.005, 1e-12)):
        curve = z.solve_renewal(single_interior, 5.0, dt)
        assert abs(curve.values[round(5.0 / dt)] - exact) <= bound


def test_jump_nodes_second_order_with_self_jump():
    # Poisson r = 1: s(theta) = 1 - e^{-1} and s(2 theta) = 1 - 2 e^{-1}; the
    # atom's cutoff and the jump of s both land on these nodes, where the
    # delay form is exact (the march was 2e-5 and 6e-7 off at dt 0.02)
    spec = poisson_chain_spec(1.0)
    for dt in (0.02, 0.01, 0.005):
        curve = z.solve_renewal(spec, 2.0, dt)
        k = round(1.0 / dt)
        assert abs(curve.values[k] - (1.0 - math.exp(-1.0))) <= 1e-14
        assert abs(curve.values[2 * k] - (1.0 - 2.0 * math.exp(-1.0))) <= 1e-14


def test_interior_lift_propagates_exactly(four_state):
    # never reaching the origin by t = 40 is one way of surviving to it
    base = z.solve_renewal(four_state, 40.0, 0.01)
    lifted = z.lift_survival(four_state, base, z.AugmentedState(2))
    q, states = killed_matrix(four_state)
    semigroup = expm(q * 40.0)[states.index(2)]
    assert lifted.values[-1] >= semigroup.sum()


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
    # no other hold can complete before theta, so s_u = 1 - e^{-q0 (theta - u)} on [theta - u, theta];
    # the first window is exact (the convolution lift was 7.4e-5 off at dt 0.02)
    spec, u = _self_jump_spec(), 0.3
    exact = 1.0 - math.exp(-1.5 * (1.0 - u))
    for dt in (0.02, 0.01, 0.005):
        lifted = z.lift_survival(spec, z.solve_renewal(spec, 2.0, dt), z.AugmentedState(0, u))
        assert np.max(np.abs(lifted.at([1.0 - u, 1.0]) - exact)) <= 1e-13


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


@pytest.mark.parametrize("spec, start", [
    (four_state_spec(), z.AugmentedState(2)),
    (four_state_spec(), z.AugmentedState(0, 0.4)),
    (_self_jump_spec(), z.AugmentedState(0, 0.3051)),
], ids=["four-from-2", "four-clock", "self-jump-clock"])
def test_solve_from_start_is_the_lift(spec, start):
    # one solve serves every start: the lift is that solve on the base curve's grid
    curve = z.solve_renewal(spec, 40.0, 0.01, start)
    lifted = z.lift_survival(spec, z.solve_renewal(spec, 40.0, 0.01), start)
    assert curve.start == start
    assert np.array_equal(curve.values, lifted.values) and np.array_equal(curve.cdf, lifted.cdf)


def test_plateau_on_alpha_positive_spec(single_interior):
    sol = z.solve_phi(z.analyze_hitting(single_interior))
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
    sol = z.solve_phi(z.analyze_hitting(single_interior))
    lv = z.limit_vector_recurrent(sol)
    base = z.solve_renewal(single_interior, 40.0, 0.01)
    lifted = z.lift_survival(single_interior, base, z.AugmentedState(1))
    t = 35.0
    assert math.exp(sol.phi * t) * lifted.at([t])[0] == pytest.approx(lv.values[1], abs=2e-3)


def test_origin_clock_lift_scaled_limit(single_interior):
    sol = z.solve_phi(z.analyze_hitting(single_interior))
    lv = z.limit_vector_recurrent(sol)
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


def test_at_bounds_scale_with_the_grid():
    # four-state in units 1e12 times finer: the same grid, the same refusals
    base = four_state_spec()
    for c in (1.0, 1e12):
        spec = z.ChainSpec(n_states=4, rates=base.rates * c, wait_threshold=base.wait_threshold / c)
        curve = z.solve_renewal(spec, 4.0 / c, 0.01 / c)
        top = curve.t[-1]
        assert curve.at([0.0, top * (1.0 + 1e-13)])[1] == curve.values[-1]
        for t in (-0.9 / c, top + 0.9 / c):
            with pytest.raises(PreconditionError):
                curve.at([t])


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
    with pytest.raises(PreconditionError, match="outside the chain"):
        z.solve_renewal(single_interior, 5.0, 0.01, z.AugmentedState(2))
    with pytest.raises(PreconditionError, match="below the window"):
        z.solve_renewal(single_interior, 5.0, 0.01, z.AugmentedState(0, 1.0))
    with pytest.raises(PreconditionError, match="fiftieth"):  # the grid is checked before the start
        z.solve_renewal(single_interior, 5.0, 0.3, z.AugmentedState(9))


def test_a_nan_clock_is_a_precondition_error(single_interior):
    # the clock once reached the grid arithmetic and came back as a bare ValueError
    with pytest.raises(PreconditionError):
        z.solve_renewal(single_interior, 2.0, 0.02, z.AugmentedState(0, math.nan))


def test_extreme_rates_end_in_a_value_or_a_typed_error():
    # q0 theta far past 745: e^{-q0 theta} underflows, no hold can complete and s stays 1
    fast = z.ChainSpec(2, np.array([[0.0, 1e308], [1.0, 0.0]]), 1.0)
    assert np.all(z.solve_renewal(fast, 3.0, 0.02).values == 1.0)
    # returns at rate 1e300 overflow a' = (z L) q_{.,0}
    far = z.ChainSpec(3, np.array([[0.0, 1.0, 0.0], [1e300, 0.0, 1e300], [0.0, 1e300, 0.0]]), 1.0)
    with pytest.raises(NumericError):
        z.solve_renewal(far, 3.0, 0.02)


def test_window_cap_rejects_before_allocating():
    # 5001 nodes a window on 401 states is past the cap of node-states
    spec = z.build_birth_death(1.0, 2.0, 400, {1: 1.0})
    with pytest.raises(PreconditionError, match=str(renewal.MAX_WINDOW)):
        z.solve_renewal(spec, 1.0, 1.0 / 5000)


def test_csv_rendering_matches_row_formatting():
    # the array formatter, byte for byte what a per-row format gives
    values = np.array([1.0, 1.0 - 2.0**-53, 0.999999999999, 0.5, 1e-290, 3.7e-301, 5e-324, 0.0])
    curve = z.SurvivalCurve(dt=0.01, values=values, start=z.AugmentedState(0))
    rows = "".join(f"{tv:.10g},{sv:.12g},{sv:.12g}\n" for tv, sv in zip(curve.t, values))
    assert z.curve_to_csv(curve) == "t,s,scaled_s\n" + rows
    scaled = [float(row.split(",")[2]) for row in z.curve_to_csv(curve, phi=1.0).splitlines()[1:]]
    assert scaled[-1] == 0.0 and all(map(math.isfinite, scaled))
    # and with phi, over more rows than one formatting chunk, on a curve that falls through 70 decades
    spec = poisson_chain_spec(1.0)
    curve = z.solve_renewal(spec, 160.0, 0.01)
    phi = z.solve_phi(z.analyze_hitting(spec)).phi
    scaled = np.exp(phi * curve.t + np.log(curve.values))
    assert len(curve.values) > 3 * renewal._CSV_CHUNK and curve.values[-1] < 1e-60
    rows = "".join("%.10g,%.12g,%.12g\n" % row for row in zip(curve.t.tolist(), curve.values.tolist(), scaled.tolist()))
    assert z.curve_to_csv(curve, phi) == "t,s,scaled_s\n" + rows


def _formatted(values, digits):
    """``renewal._format_g``'s block read back as one string per value."""
    block = renewal._format_g(np.asarray(values, dtype=float), digits)
    return [bytes(column[column != 0]).decode("ascii") for column in block.T]


@pytest.mark.parametrize("digits", [10, 12])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=100))
def test_format_g_is_percent_g_on_any_double(digits, values):
    assert _formatted(values, digits) == ["%.*g" % (digits, v) for v in values]


def _format_edges() -> np.ndarray:
    tens = 10.0 ** np.arange(-300, 301)
    # 11 and 13 significant digits ending in 5: exact ties at 10 and 12 digits
    # where the double is exact (integers), near-ties elsewhere
    fives = np.array([10000000015.0, 10000000025.0, 99999999995.0, 1.0000000015, 1000000000005.0, 1000000000015.0,
                      9999999999995.0, 1.000000000005, 2.500000000005e-7, 0.0001000000000005, 99999.99999995,
                      1.2345678901235e100, 5.000000000005e-290])
    return np.concatenate([
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        [1.0 - 2.0**-53, 5e-324, 1e-290, 1e290, np.nextafter(1e-290, 0.0), np.nextafter(1e-290, 1.0),
         np.nextafter(1e290, 0.0), np.nextafter(1e290, np.inf), 0.0, -0.0, np.inf, -np.inf, np.nan],
        fives, -fives, np.nextafter(fives, 0.0), np.nextafter(fives, np.inf),
    ])


@pytest.mark.parametrize("digits", [10, 12])
def test_format_g_is_percent_g_at_the_edges(digits):
    values = _format_edges()
    assert _formatted(values, digits) == ["%.*g" % (digits, v) for v in values.tolist()]


def test_csv_export(single_interior):
    curve = z.solve_renewal(single_interior, 2.0, 0.02)
    text = z.curve_to_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "t,s,scaled_s"
    assert len(lines) == len(curve.values) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    sol = z.solve_phi(z.analyze_hitting(single_interior))
    scaled = z.curve_to_csv(curve, phi=sol.phi).strip().splitlines()
    t3, s3, sc3 = (float(x) for x in scaled[3].split(","))
    assert sc3 == pytest.approx(math.exp(sol.phi * t3) * s3, rel=1e-9)


def _r50_spec():
    # the origin's hold completes with probability e^{-50}; returns come at rates 100 and 15
    return z.ChainSpec(3, np.array([[0.0, 50.0, 0.0], [100.0, 0.0, 25.0], [15.0, 40.0, 0.0]]), 1.0)


@pytest.mark.parametrize("spec", [_r50_spec(), poisson_chain_spec(60.0),
                                  z.build_birth_death(40.0, 80.0, 20, {1: 60.0})],
                         ids=["r50", "poisson60", "bd20-fast"])
def test_union_bound_on_stiff_specs(spec):
    # a hold completes only theta after a fresh clock, F(t) = e^{-q0 theta}
    # [1{t >= theta} + int_0^{t - theta} a] with the clock flux a <= r = max_i q_i0,
    # so 1 - s(t) <= e^{-q0 theta} (1 + r t): below 1e-15 on all three specs
    top = math.exp(-spec.exit_rates[0] * spec.wait_threshold)
    r = spec.rates[:, 0].max()
    for dt in (0.02, 0.01, 0.005, 0.0025):
        curve = z.solve_renewal(spec, 3.0, dt)
        bound = top * (1.0 + r * curve.t)
        assert np.all(1.0 - curve.values <= bound)
        assert np.all((curve.cdf >= 0.0) & (curve.cdf <= bound))


@pytest.mark.parametrize("spec, t_max", [(four_state_spec(), 40.0), (poisson_chain_spec(1.0), 160.0),
                                         (poisson_chain_spec(0.3), 40.0)],
                         ids=["four-state", "poisson1", "poisson0.3"])
def test_scaled_curve_reaches_kappa(spec, t_max):
    # e^{phi t} s(t) -> kappa, held to 1e-8 over the last quarter (criterion 3
    # holds the level to 1e-3).  Poisson r = 0.3 decays faster than e^{-q0 t},
    # where a clockless mass in H left uncorrected would swamp the curve.
    sol = z.solve_phi(z.analyze_hitting(spec))
    curve = z.solve_renewal(spec, t_max, 0.01)
    late = curve.t >= 0.75 * t_max
    scaled = np.exp(sol.phi * curve.t[late]) * curve.values[late]
    assert np.max(np.abs(scaled - sol.kappa)) <= 1e-8


@pytest.mark.parametrize("spec, start", [
    (single_interior_spec(), z.AugmentedState(0)),
    (four_state_spec(), z.AugmentedState(0)),
    (four_state_spec(), z.AugmentedState(2)),
    (four_state_spec(), z.AugmentedState(0, 0.4)),
    (poisson_chain_spec(1.0), z.AugmentedState(0)),
    (_self_jump_spec(), z.AugmentedState(0, 0.3051)),
    (heavy_bd_spec(40), z.AugmentedState(0)),
], ids=["single", "four", "four-from-2", "four-clock", "poisson1", "self-jump-clock", "heavy40"])
def test_mass_balance_at_every_node(spec, start):
    # s = z . 1 and F = P(tau <= t), summed from the completions, account for all the mass
    base = z.solve_renewal(spec, 40.0, 0.01)
    curve = z.lift_survival(spec, base, start)
    assert np.max(np.abs(curve.values + curve.cdf - 1.0)) <= 1e-13
    assert np.all(np.diff(curve.values) <= 0.0)


@pytest.mark.parametrize("spec, s_hat", [(single_interior_spec(), _s_hat_single),
                                         (poisson_chain_spec(1.0), _s_hat_poisson)],
                         ids=["single", "poisson1"])
def test_curve_matches_talbot_inversion(spec, s_hat):
    # Talbot's contour converges here once t is a few windows past the kinks of s at k theta
    curve = z.solve_renewal(spec, 40.0, 0.005)
    with mpmath.workdps(30):
        for t in (10.0, 20.0, 30.0, 40.0):
            want = float(mpmath.invertlaplace(s_hat, t, method="talbot"))
            assert curve.at([t])[0] == pytest.approx(want, rel=1e-9)
