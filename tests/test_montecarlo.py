import math

import numpy as np
import pytest

import zerohold as z
from zerohold.chain import AugmentedState

from conftest import heavy_bd_spec


def _tau_from_events(path, theta):
    # first instant a stay at the origin reaches the threshold, replayed
    # from the raw event log
    t_prev = 0.0
    state = path.start.state
    clock_used = path.start.clock if state == 0 else 0.0
    for t, s in zip(path.times, path.states):
        if state == 0 and (t - t_prev) + clock_used >= theta:
            return t_prev - clock_used + theta
        state = s
        t_prev = t
        clock_used = 0.0
    if state == 0 and (path.horizon - t_prev) + clock_used >= theta:
        return t_prev - clock_used + theta
    return math.inf


def test_simulate_path_event_structure(single_interior):
    path = z.simulate_path(single_interior, AugmentedState.at_origin(0.0), 12.0, seed=7)
    assert len(path.times) == len(path.states)
    t = np.asarray(path.times)
    assert (np.diff(t) > 0).all()
    assert t[0] > 0
    assert t[-1] <= path.horizon
    assert set(path.states) <= {0, 1}
    assert path.tau == pytest.approx(_tau_from_events(path, 1.0), abs=1e-12)
    assert not path.killed
    # the sampler keeps going after the threshold event
    assert path.times[-1] > path.tau


def test_simulate_path_seed_behaviour(single_interior):
    a = z.simulate_path(single_interior, AugmentedState.at_origin(0.0), 10.0, seed=3)
    b = z.simulate_path(single_interior, AugmentedState.at_origin(0.0), 10.0, seed=3)
    c = z.simulate_path(single_interior, AugmentedState.at_origin(0.0), 10.0, seed=4)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
    assert not np.array_equal(a.times, c.times)


def test_estimate_survival_thread_count_invariant(single_interior):
    grid = [1.0, 3.0]
    one = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 2000, seed=3, threads=1)
    four = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 2000, seed=3, threads=4)
    assert [e.value for e in one] == [e.value for e in four]
    assert [e.stderr for e in one] == [e.stderr for e in four]
    other = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 2000, seed=8)
    assert [e.value for e in other] != [e.value for e in one]


@pytest.mark.parametrize("grid", [[-0.3, 1.0], [0.0], [-3.0, -1.0]])
def test_estimate_survival_rejects_negative_times(single_interior, grid):
    with pytest.raises(z.PreconditionError):
        z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 200, seed=1)


def test_estimate_survival_matches_renewal(single_interior):
    dt = 0.005
    curve = z.solve_renewal(single_interior, 6.0, dt)
    grid = [0.5, 1.0, 2.0, 5.0]
    ests = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 20000, seed=21)
    for tv, est in zip(grid, ests):
        tol = 3.0 * est.stderr + 5.0 * dt * dt
        assert abs(est.value - curve.at(tv)) <= tol


def test_tail_ratio_common_random_numbers(single_interior):
    start = AugmentedState(0, 0.5)
    rep = z.estimate_tail_ratio(single_interior, start, start, 0.0, 6.0, 4000, seed=11)
    # identical starts share every random draw, so the ratio is exact
    assert rep.value == 1.0
    assert rep.stderr == 0.0
    assert rep.survivors_num == rep.survivors_den
    assert not rep.unreliable


def test_verify_harmonic_profile_is_flat(single_interior):
    sol = z.solve_phi(single_interior)
    lv = z.limit_vector_recurrent(single_interior, sol)
    prof = z.verify_harmonic(
        single_interior, lv.values, sol.phi, [1.0, 2.0], 20000, seed=5, h_origin=lv.origin
    )
    start_level = lv.origin(0.0)
    for est in prof.estimates:
        assert abs(est.value - start_level) <= 3.0 * est.stderr
    vals = [e.value for e in prof.estimates]
    spread = max(vals) - min(vals)
    assert spread <= 3.0 * max(e.stderr for e in prof.estimates) * math.sqrt(2.0)


def test_conditioned_vs_rejection_small_run(single_interior):
    sol = z.solve_phi(single_interior)
    lv = z.limit_vector_recurrent(single_interior, sol)
    cond = z.make_limit_chain(single_interior, lv)
    rep = z.conditioned_vs_rejection(single_interior, cond, 8.0, 2.0, 20000, seed=9)
    assert rep.n_rejection > 100
    assert rep.n_conditioned == rep.n_rejection
    assert 0.0 < rep.acceptance_rate < 1.0
    assert rep.occupation_diff.sum() == pytest.approx(0.0, abs=1e-12)
    assert rep.max_diff_in_se <= 3.0
    assert rep.chi2_pvalue > 0.01


def test_rejection_rows_keyed_by_seed_and_path(single_interior):
    start = AugmentedState.at_origin(0.0)
    # a window past theta holds at least one jump per surviving path, so rows are continuous draws
    a = z.rejection_window_stats(single_interior, start, 6.0, 2.0, 400, seed=21)
    b = z.rejection_window_stats(single_interior, start, 6.0, 2.0, 400, seed=22)
    assert a.shape[1] == b.shape[1] == single_interior.n_states + 1
    assert len(a) > 10 and len(b) > 10
    assert np.all(a[:, -1] >= 1)
    shared = {tuple(r) for r in a} & {tuple(r) for r in b}
    assert not shared
    assert np.array_equal(a, z.rejection_window_stats(single_interior, start, 6.0, 2.0, 400, seed=21, threads=3))


def test_estimate_kill_hazard_tracks_the_curve(single_interior):
    cond = z.make_vague_limit(single_interior)
    mids, ests = z.estimate_kill_hazard(cond, 40000, seed=13)
    assert len(mids) == len(ests) == 12
    checked = 0
    for m, est in zip(mids, ests):
        if est.n < 200:
            continue
        assert abs(est.value - cond.killing_hazard(m)) <= 3.0 * est.stderr
        checked += 1
    assert checked >= 8


def test_sample_hitting_times_transient_mass(transient_walk):
    ht = z.sample_hitting_times(transient_walk, 1, 4000, 400.0, seed=17)
    assert len(ht) == 4000
    frac_inf = np.mean(np.isinf(ht))
    se = math.sqrt(0.25 / 4000)
    # escape before the origin happens with the ruin probability 1/2
    assert abs(frac_inf - 0.5) <= 3.0 * se


@pytest.mark.parametrize("horizon", [0.0, -5.0])
def test_sample_hitting_times_rejects_nonpositive_horizon(single_interior, horizon):
    with pytest.raises(z.PreconditionError):
        z.sample_hitting_times(single_interior, 1, 100, horizon, seed=1)


def test_subexp_diagnostic_rejects_exponential():
    rng = np.random.default_rng(0)
    samples = rng.exponential(1.0, 4000)
    diag = z.subexp_diagnostic(samples, 2, np.linspace(1.0, 8.0, 15), seed=1)
    assert not diag.consistent
    assert np.nanmax(diag.ratio) > 2.0
    assert not diag.degenerate


def test_subexp_diagnostic_accepts_heavy_walk():
    spec = heavy_bd_spec(40)
    ht = z.sample_hitting_times(spec, 1, 6000, 3000.0, seed=23)
    fin = ht[np.isfinite(ht)]
    grid = np.linspace(5.0, np.quantile(fin, 0.998), 12)
    diag = z.subexp_diagnostic(fin, 2, grid, seed=2)
    assert diag.consistent
    assert diag.order == 2
    reliable_ratios = diag.ratio[diag.reliable]
    assert reliable_ratios.max() <= 2.5


def test_tail_equivalence_ratio_bd():
    # hitting tails from neighbouring starts settle near the harmonic ratio
    spec = heavy_bd_spec(40)
    t1 = z.sample_hitting_times(spec, 1, 6000, 3000.0, seed=23)
    t2 = z.sample_hitting_times(spec, 2, 6000, 3000.0, seed=24)
    f1 = t1[np.isfinite(t1)]
    f2 = t2[np.isfinite(t2)]
    t_ref = 400.0
    assert np.sum(f1 > t_ref) >= 100
    ratio = np.mean(f2 > t_ref) / np.mean(f1 > t_ref)
    h = z.harmonic_vector_bd(spec)
    target = h[2] / h[1]
    assert 0.5 * target <= ratio <= 2.0 * target
