"""End-to-end acceptance checks, one per numbered criterion.

Every test records a PASS/FAIL line through conftest.record_criterion so the
terminal summary carries the whole scoreboard, then asserts the same
conditions so pytest reports failures the usual way.  Seeds are fixed: the
Monte Carlo criteria are deterministic replays.
"""

import math
import time

import numpy as np
import pytest

import zerohold as z
from zerohold import montecarlo
from zerohold.chain import AugmentedState

from conftest import (
    four_state_spec,
    heavy_bd_spec,
    poisson_chain_spec,
    record_criterion,
    single_interior_spec,
)

P0_TRANSIENT = ((1 - math.exp(-1)) / 2) / (math.exp(-1) + (1 - math.exp(-1)) / 2)


def test_criterion_1_coin_runs():
    t0 = time.perf_counter()
    s = z.coin_root(0.5, 2)
    c = z.coin_constant(0.5, 2, s)
    e4 = z.coin_exact(0.5, 2, 4)
    e20 = z.coin_exact(0.5, 2, 20)
    asym20 = c * s**21
    elapsed = time.perf_counter() - t0
    root_ok = abs(s - (1 + math.sqrt(5)) / 4) <= 1e-9
    const_ok = abs(c - (1 + 1 / math.sqrt(5))) <= 1e-8
    exact_ok = e4 == 0.5
    asym_ok = abs(asym20 / e20 - 1.0) < 0.01
    ok = root_ok and const_ok and exact_ok and asym_ok and elapsed < 1.0
    record_criterion(
        1, ok, f"root/const/exact/asymptote all inside bands, {elapsed:.3f}s"
    )
    assert root_ok and const_ok and exact_ok and asym_ok
    assert elapsed < 1.0


def test_criterion_2_poisson_case():
    t0 = time.perf_counter()
    unit = z.poisson_phi(1.0)
    two = z.poisson_phi(2.0)
    chain = z.solve_phi(z.analyze_hitting(poisson_chain_spec(2.0)))
    elapsed = time.perf_counter() - t0
    unit_ok = unit.phi_r == 1.0 and unit.c_r == 2.0
    oracle_ok = abs(two.phi_r - 0.4063757399599599) <= 1e-10
    chain_ok = abs(two.phi_r - chain.phi) <= 1e-8
    ok = unit_ok and oracle_ok and chain_ok and elapsed < 1.0
    record_criterion(2, ok, f"unit rate exact, rate-2 on both oracles, {elapsed:.3f}s")
    assert unit_ok and oracle_ok and chain_ok
    assert elapsed < 1.0


def test_criterion_3_scaled_plateau():
    spec = single_interior_spec()
    t0 = time.perf_counter()
    sol = z.solve_phi(z.analyze_hitting(spec))
    curve = z.solve_renewal(spec, 40.0, 0.005)
    elapsed = time.perf_counter() - t0
    mask = (curve.t >= 20.0) & (curve.t <= 40.0)
    scaled = np.exp(sol.phi * curve.t[mask]) * curve.values[mask]
    variation = scaled.max() / scaled.min() - 1.0
    plateau = scaled.mean()
    var_ok = variation < 0.005
    level_ok = abs(plateau - sol.kappa) < 1e-3
    ok = var_ok and level_ok and elapsed < 30.0
    record_criterion(
        3,
        ok,
        f"variation {variation:.2e}, plateau-kappa {plateau - sol.kappa:+.2e}, {elapsed:.1f}s",
    )
    assert var_ok and level_ok
    assert elapsed < 30.0


def test_criterion_4_transient_limit(transient_walk):
    t0 = time.perf_counter()
    est = z.estimate_survival(
        transient_walk, AugmentedState.at_origin(0.0), [60.0], 100_000, seed=4
    )[0]
    elapsed = time.perf_counter() - t0
    dev = abs(est.value - P0_TRANSIENT)
    in_band = dev <= 3.0 * est.stderr
    ok = in_band and elapsed < 120.0
    record_criterion(
        4, ok, f"dev {dev / est.stderr:.2f} se at 1e5 paths, {elapsed:.1f}s"
    )
    assert in_band
    assert elapsed < 120.0


def test_criterion_5_martingale_profile():
    spec = single_interior_spec()
    sol = z.solve_phi(z.analyze_hitting(spec))
    lv = z.limit_vector_recurrent(sol)
    prof = z.verify_harmonic(lv, [1.0, 2.0, 5.0, 10.0], 100_000, seed=5)
    vals = [e.value for e in prof.estimates]
    ses = [e.stderr for e in prof.estimates]
    hi, lo = int(np.argmax(vals)), int(np.argmin(vals))
    spread = vals[hi] - vals[lo]
    band = 3.0 * math.hypot(ses[hi], ses[lo])
    ok = spread <= band
    record_criterion(5, ok, f"profile spread {spread:.4f} vs band {band:.4f}")
    assert ok


def test_criterion_6_weak_limit_agreement():
    spec = single_interior_spec()
    sol = z.solve_phi(z.analyze_hitting(spec))
    lv = z.limit_vector_recurrent(sol)
    cond = z.make_limit_chain(lv)
    rep = z.conditioned_vs_rejection(cond, 15.0, 3.0, 100_000, seed=6)
    occ_ok = rep.max_diff_in_se <= 3.0
    chi_ok = rep.chi2_pvalue > 0.01
    ok = occ_ok and chi_ok
    record_criterion(
        6,
        ok,
        f"occupation {rep.max_diff_in_se:.2f} se, chi2 p {rep.chi2_pvalue:.3f}, "
        f"{rep.n_rejection} accepted",
    )
    assert occ_ok and chi_ok


def test_criterion_7_renewal_vs_mc():
    dt = 0.01
    cases = [
        ("single-interior", single_interior_spec(), 71),
        ("four-state", four_state_spec(), 72),
        ("poisson", poisson_chain_spec(1.0), 73),
    ]
    worst = -math.inf
    for _, spec, seed in cases:
        curve = z.solve_renewal(spec, 15.0, dt)
        grid = [float(k) for k in range(1, 16)]
        ests = z.estimate_survival(
            spec, AugmentedState.at_origin(0.0), grid, 40_000, seed=seed
        )
        for tv, est in zip(grid, ests):
            margin = abs(curve.at(tv) - est.value) - (3.0 * est.stderr + 5.0 * dt * dt)
            worst = max(worst, margin)
    ok = worst <= 0.0
    record_criterion(7, ok, f"worst margin {worst:+.2e} across 3 specs x 15 points")
    assert ok


def test_criterion_8_decay_parameter():
    limit = 3.0 - 2.0 * math.sqrt(2.0)
    errors = []
    for n in (25, 50, 100, 200):
        spec = z.build_birth_death(1.0, 2.0, n, {1: 1.0})
        alpha = z.perron_decay(*spec.killed_block[1:])
        errors.append(abs(alpha - limit))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    tight = errors[-1] < 1e-3
    ok = monotone and tight
    record_criterion(
        8, ok, "errors " + " > ".join(f"{e:.2e}" for e in errors)
    )
    assert monotone and tight


def test_criterion_9_property_suite():
    # (a) the convolution-ratio diagnostic separates light from heavy tails
    rng = np.random.default_rng(0)
    light = z.subexp_diagnostic(rng.exponential(1.0, 4000), 2, np.linspace(1.0, 8.0, 15), seed=1)
    a_light = (not light.consistent) and np.nanmax(light.ratio) > 2.0
    heavy = heavy_bd_spec(40)
    samples = z.sample_hitting_times(heavy, 1, 6000, 3000.0, seed=23)
    fin = samples[np.isfinite(samples)]
    diag = z.subexp_diagnostic(fin, 2, np.linspace(5.0, np.quantile(fin, 0.998), 12), seed=2)
    a_heavy = diag.consistent and diag.ratio[diag.reliable].max() <= 2.5
    a_ok = a_light and a_heavy

    # (b) tail ratio of a mid-hold start drifts onto the clock-shift target
    target = (1 - math.exp(-0.5)) / (1 - math.exp(-1.0))
    ratios = []
    for tv in (5.0, 10.0, 20.0, 40.0, 80.0):
        rep = z.estimate_tail_ratio(
            heavy, AugmentedState(0, 0.5), AugmentedState(0, 0.0), 0.0, tv, 30_000, seed=31
        )
        ratios.append(rep.value)
    b_ok = all(abs(r / target - 1.0) <= 0.10 for r in ratios[-3:])

    # (c) the weak-limit transform of an exactly harmonic vector is honest
    walk = z.build_birth_death(1.0, 2.0, 12, {1: 1.0})
    cond = z.make_subexp_weak(walk, z.harmonic_vector_bd(walk))
    c_ok = cond.honest and cond.harmonic_residual <= 1e-9

    # (d) the zero-tilt reduction reproduces the raw survival curve
    spec = single_interior_spec()
    zero_tilt = z.make_hlambda(spec, 0.0)
    grid = [1.0, 2.0, 4.0, 8.0]
    via_cond = z.estimate_survival(zero_tilt, AugmentedState.at_origin(0.0), grid, 20_000, seed=41)
    via_raw = z.estimate_survival(spec, AugmentedState.at_origin(0.0), grid, 20_000, seed=42)
    d_ok = all(
        abs(a.value - b.value) <= 3.0 * math.hypot(a.stderr, b.stderr)
        for a, b in zip(via_cond, via_raw)
    )

    ok = a_ok and b_ok and c_ok and d_ok
    record_criterion(
        9,
        ok,
        f"diagnostic {'ok' if a_ok else 'FAIL'}, tail trend {'ok' if b_ok else 'FAIL'}, "
        f"honest transform {'ok' if c_ok else 'FAIL'}, zero tilt {'ok' if d_ok else 'FAIL'}",
    )
    assert a_ok and b_ok and c_ok and d_ok


def test_criterion_10_invariant_suite(four_state, single_interior, transient_walk, monkeypatch):
    # MGF monotone in the tilt below the decay rate
    alpha = z.perron_decay(*four_state.killed_block[1:])
    mgf_vals = [z.hitting_mgf(four_state, lam).values[1] for lam in (0.0, 0.3 * alpha, 0.6 * alpha)]
    mono_ok = mgf_vals[0] < mgf_vals[1] < mgf_vals[2]

    # exponential moment of the return cycle is convex
    lams = np.linspace(0.0, 0.4, 9)
    ivals = [z.return_mgf(single_interior, float(l)).value for l in lams]
    conv_ok = bool(np.all(np.diff(np.diff(ivals)) >= -1e-10))

    # joint rate/threshold rescale moves the tilt and nothing else
    c = 3.7
    sol1 = z.solve_phi(z.analyze_hitting(four_state))
    scaled = z.ChainSpec(
        n_states=four_state.n_states,
        rates=four_state.rates * c,
        wait_threshold=four_state.wait_threshold / c,
    )
    sol2 = z.solve_phi(z.analyze_hitting(scaled))
    lv1 = z.limit_vector_recurrent(sol1)
    lv2 = z.limit_vector_recurrent(sol2)
    scale_ok = abs(sol2.phi - c * sol1.phi) <= 1e-8 * c * sol1.phi and np.allclose(
        lv1.values, lv2.values, rtol=1e-8
    )

    # transient fixed-point identities
    lvt = z.limit_vector_transient(z.analyze_hitting(transient_walk))
    beta = z.never_hit_prob(transient_walk)
    p = lvt.values
    fixed_ok = all(
        abs(p[i] - (beta[i] + (1 - beta[i]) * p[0])) <= 1e-10 for i in (1, 5, 20)
    ) and abs(p[0] - P0_TRANSIENT) <= 1e-9

    # semigroup property of the exponential action
    v = np.linspace(0.2, 1.0, 3)
    whole = z.expm_action(four_state, v, 1.1)
    split = z.expm_action(four_state, z.expm_action(four_state, v, 0.4), 0.7)
    semi_ok = bool(np.allclose(whole, split, atol=1e-9))

    # how the paths are chunked never changes estimates
    grid = [1.0, 3.0]
    one = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 3000, seed=10)
    monkeypatch.setattr(montecarlo, "_BATCH", 64)
    chunked = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 3000, seed=10)
    seed_ok = [e.value for e in one] == [e.value for e in chunked]

    ok = mono_ok and conv_ok and scale_ok and fixed_ok and semi_ok and seed_ok
    record_criterion(
        10,
        ok,
        "monotone MGF, convex moment, scale covariance, fixed points, semigroup, seed stability",
    )
    assert mono_ok and conv_ok and scale_ok and fixed_ok and semi_ok and seed_ok
