import math

import numpy as np
import pytest

import zerohold as z
from zerohold import montecarlo as mc
from zerohold.chain import AugmentedState

from conftest import heavy_bd_spec, load_perfbench


def test_estimate_survival_batch_size_invariant(single_interior, monkeypatch):
    grid = [1.0, 3.0]
    one = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 2000, seed=3)
    monkeypatch.setattr(mc, "_BATCH", 64)
    chunked = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 2000, seed=3)
    assert [e.value for e in one] == [e.value for e in chunked]
    assert [e.stderr for e in one] == [e.stderr for e in chunked]
    other = z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 2000, seed=8)
    assert [e.value for e in other] != [e.value for e in one]


@pytest.mark.parametrize("grid", [[-0.3, 1.0], [0.0], [-3.0, -1.0], []])
def test_estimate_survival_rejects_negative_times(single_interior, grid):
    # an empty grid too: numpy's max of it raises its own ValueError, no package error
    with pytest.raises(z.PreconditionError):
        z.estimate_survival(single_interior, AugmentedState.at_origin(0.0), grid, 200, seed=1)
    with pytest.raises(z.PreconditionError):
        z.verify_harmonic(single_interior, z.limit_vector_recurrent(single_interior, z.solve_phi(single_interior)),
                          grid, 200, seed=1)


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
    prof = z.verify_harmonic(single_interior, lv, [1.0, 2.0], 20000, seed=5)
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


def test_rejection_rows_keyed_by_seed_and_path(single_interior, monkeypatch):
    start = AugmentedState.at_origin(0.0)
    # a window past theta holds at least one jump per surviving path, so rows are continuous draws
    a = z.rejection_window_stats(single_interior, start, 6.0, 2.0, 400, seed=21)
    b = z.rejection_window_stats(single_interior, start, 6.0, 2.0, 400, seed=22)
    assert a.shape[1] == b.shape[1] == single_interior.n_states + 1
    assert len(a) > 10 and len(b) > 10
    assert np.all(a[:, -1] >= 1)
    shared = {tuple(r) for r in a} & {tuple(r) for r in b}
    assert not shared
    monkeypatch.setattr(mc, "_BATCH", 64)
    assert np.array_equal(a, z.rejection_window_stats(single_interior, start, 6.0, 2.0, 400, seed=21))


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


def test_rejection_window_must_end_by_the_horizon(four_state):
    start = AugmentedState.at_origin(0.0)
    with pytest.raises(z.PreconditionError):
        z.rejection_window_stats(four_state, start, 5.0, 9.0, 200, seed=1)
    rows = z.rejection_window_stats(four_state, start, 5.0, 5.0, 200, seed=1)
    assert rows.shape[0] > 0 and np.allclose(rows[:, :4].sum(axis=1), 1.0)


def test_conditioned_start_where_h_is_zero_is_rejected():
    # the escape state of a recurrent truncation has h = 0, so its conditioned row is empty
    spec = z.build_birth_death(1.0, 2.0, 60, {1: 1.0})
    lv = z.limit_vector_recurrent(spec, z.solve_phi(spec))
    for cond in (z.make_limit_chain(spec, lv), z.make_hlambda(spec, 0.1)):
        assert cond.h_values[60] == 0.0
        with pytest.raises(z.PreconditionError, match="h = 0"):
            z.estimate_survival(cond, AugmentedState(60), [0.0, 10.0, 20.0], 200, seed=1)
        assert z.estimate_survival(cond, AugmentedState(59), [10.0], 200, seed=1)[0].value > 0.0


def _raw_philox(key, p, b):
    # numpy bumps the counter before each block, so start one below (p, b, 0, 0)
    c = (int(p) | int(b) << 64) - 1
    words = [(c >> (64 * i)) & (2**64 - 1) for i in range(4)]
    return np.random.Philox(key=np.array(key, dtype=np.uint64), counter=np.array(words, dtype=np.uint64)).random_raw(4)


def _force_route(monkeypatch, route):
    # an infinite cost on the other route; "c" is numpy's Philox, "emulation" the grid
    monkeypatch.setattr(mc, "_E_CALL_NS" if route == "c" else "_C_CALL_NS", math.inf)


_KEYS = [tuple(int(k) for k in row) for row in np.random.default_rng(0).integers(0, 2**64, (4, 2), dtype=np.uint64)]
_KEYS += [(0, 0), (2**64 - 1, 2**64 - 1)]


def test_philox_words_match_numpy(monkeypatch):
    rng = np.random.default_rng(0)
    # b = 0 makes numpy's bump from the word below carry into the block word
    blocks = np.concatenate([np.array([0, 1, 2**64 - 1], dtype=np.uint64), rng.integers(0, 2**64, 3, dtype=np.uint64)])
    paths = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64), rng.integers(0, 2**64, 3, dtype=np.uint64)])
    # the full grid, and the edge grids where broadcasting keeps a word a vector or a scalar longest
    grids = [(blocks, paths), (blocks[:1], paths[:1]), (blocks[:1], paths), (blocks, paths[:1])]
    for key in _KEYS:
        for b, p in grids:
            got = np.stack(mc._philox(key, p, b), axis=-1)
            want = np.array([[_raw_philox(key, pi, bi) for pi in p] for bi in b])
            assert got.shape == (b.size, p.size, 4) and np.array_equal(got, want), (key, b.size, p.size)
    # each route of a refill on dense and sparse id sets; at lo = 0 the start
    # one below (0, b, 0, 0) borrows from the block word
    id_sets = [np.arange(0, 6), np.arange(9, 14), np.array([0, 3, 4, 11]), np.array([5, 70]),
               np.array([2**64 - 4, 2**64 - 3, 2**64 - 1], dtype=np.uint64)]
    for route in ("c", "emulation"):
        with monkeypatch.context() as forced:
            _force_route(forced, route)
            for ids in id_sets:
                for key in _KEYS:
                    stream = mc._Stream(key, ids)
                    for block, count in [(0, 1), (1, 1), (1, 3), (2**33, 2)]:
                        got = mc._words(key, block, count, ids, stream.philox)
                        want = np.array([[_raw_philox(key, p, block + j) for p in ids] for j in range(count)])
                        assert got.shape == (count, 4, ids.size) and got.dtype == np.uint64
                        assert got.flags.writeable  # take shifts the words in place
                        assert np.array_equal(got, want.transpose(0, 2, 1)), (route, ids, key, block, count)
                    # one bit generator per stream, made by the C route only
                    assert (stream.bg is None) == (route == "emulation")


# Random123's known-answer vector for philox4x64-10: counter (0, 0, 0, 0) under key (0, 0)
_KAT = np.array([0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B], dtype=np.uint64)


def test_philox_matches_the_published_known_answer(monkeypatch):
    zero = np.zeros(1, dtype=np.uint64)
    assert np.array_equal(np.concatenate(mc._philox((0, 0), zero, zero)).ravel(), _KAT)
    # on the C route the start one below (0, 0, 0, 0) borrows through all four counter words
    for route in ("c", "emulation"):
        with monkeypatch.context() as forced:
            _force_route(forced, route)
            stream = mc._Stream((0, 0), np.array([0]))
            assert np.array_equal(mc._words((0, 0), 0, 1, stream.ids, stream.philox).ravel(), _KAT), route


def _path_words(key, p, n):
    """The first ``n`` uniforms of path p: its blocks (p, 1), (p, 2), ... in order."""
    raw = np.concatenate([_raw_philox(key, p, b) for b in range(1, -(-n // 4) + 1)])[:n]
    return (raw >> np.uint64(11)) * 2.0**-53


@pytest.mark.parametrize("width", [2, 3])
def test_stream_reads_each_path_in_word_order(width, monkeypatch):
    monkeypatch.setattr(mc, "_BLOCKS", 8)
    key = (2**63 + 12345, 1)
    stream = mc._Stream(key, np.array([0, 3, 7, 2**40]))
    taken = [stream.take(width)]
    stream.keep(np.array([True, False, True, True]))
    taken += [stream.take(width) for _ in range(13)]
    assert all(u.shape == (width, 4 if k == 0 else 3) for k, u in enumerate(taken))
    for col, p in enumerate([0, 7, 2**40]):
        first = taken[0][:, [0, 2, 3][col]]
        got = np.concatenate([first] + [u[:, col] for u in taken[1:]])
        assert np.array_equal(got, _path_words(key, p, width * 14))


def test_stream_takes_views_until_a_path_ends():
    stream = mc._Stream((3, 0), np.arange(5))
    u = stream.take(3)
    assert u.base is stream.buf and u.flags.c_contiguous
    stream.keep(np.array([True, True, False, True, True]))
    assert stream.take(3).base is not stream.buf


class _CountedPhilox:
    """numpy's Philox with the size of every ``random_raw`` array recorded."""

    def __init__(self, bg, sizes):
        self.bg, self.sizes = bg, sizes

    state = property(lambda self: self.bg.state, lambda self, value: setattr(self.bg, "state", value))

    def random_raw(self, size):
        self.sizes.append(size)
        return self.bg.random_raw(size)


def test_no_refill_makes_more_blocks_than_the_live_set_or_the_cap(monkeypatch):
    # a refill's working set is a few arrays of its block count, and the C
    # route's raw array spans the live ids of one batch, so this bounds peak memory
    sizes, raws, words = [], [], mc._words

    def counted(key, block, count, ids, philox):
        sizes.append((count * ids.size, ids.size))
        return words(key, block, count, ids, lambda: _CountedPhilox(philox(), raws))

    monkeypatch.setattr(mc, "_words", counted)
    spec = heavy_bd_spec(20)
    for n_paths in (50, 3000, 20000):
        z.sample_hitting_times(spec, 1, n_paths, 300.0, seed=5)
    assert max(live for _, live in sizes) == mc._BATCH
    assert all(blocks <= max(live, mc._BLOCKS) for blocks, live in sizes)
    assert max(blocks for blocks, _ in sizes) == mc._BATCH
    assert raws and max(raws) == 4 * mc._BATCH


def test_pick_matches_the_whole_table_search(four_state):
    rng = np.random.default_rng(4)
    rates = np.zeros((6, 6))
    for i, row in enumerate([[1, 2, 3, 4, 5], [0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 5], [1, 4]]):
        rates[i, row] = rng.uniform(0.1, 2.0, len(row))
    # the benchmark's random100, and a conditioned chain's table
    random100 = load_perfbench("workloads").random_nonreversible(np.random.default_rng([2, 0]))
    lv = z.limit_vector_recurrent(four_state, z.solve_phi(four_state))
    chains = [z.ChainSpec(n_states=6, rates=rates), z.ChainSpec(n_states=100, rates=random100.rates),
              z.make_limit_chain(four_state, lv)]
    tables = [mc._tables(c) for c in chains]
    assert sorted(set(tables[0].last - tables[0].first + 1)) == [1, 2, 3, 5]
    for tb in tables:
        n, width = tb.first.size, tb.last - tb.first + 1
        assert tb.steps == int(width.max() - 1).bit_length()
        # random draws, both ends of [0, 1) and every entry's own offset; at
        # u = 1 - 2**-53 the sum state + u rounds up to state + 1 for state >= 1
        state = np.concatenate([np.repeat(np.arange(n), 400), np.repeat(np.arange(n), width)])
        u = np.concatenate([rng.random(400 * n), tb.cum - np.repeat(np.arange(n), width)])
        u[:400 * n:5], u[1:400 * n:5] = 1.0 - 2.0**-53, 0.0
        k = np.minimum(tb.cum.searchsorted(state + u, side="right"), tb.last[state])
        assert np.array_equal(tb.pick(state, u), tb.targets[k])


def _window_rows(*args):
    return np.concatenate([rows for _, rows in mc._window_chunks(*args)])


def _per_path_outputs(n_paths, single, four):
    """Per-path results of every sampler, each a list of arrays indexed by path."""
    sol = z.solve_phi(single)
    lv = z.limit_vector_recurrent(single, sol)
    start = AugmentedState(0, 0.3)
    out = {
        "survival": mc._run(four, start, 12.0, n_paths, mc._key(5, 0)),
        "tail-j": mc._run(four, AugmentedState(2), 12.0, n_paths, mc._key(5, 1)),
        "hits": z.sample_hitting_times(heavy_bd_spec(20), 1, n_paths, 300.0, seed=5),
        "harmonic": z.verify_harmonic(single, lv, [0.5, 2.0, 4.0], n_paths, seed=5).per_path,
        "window": _window_rows(four, start, 8.0, 2.0, n_paths, mc._key(5, 0)),
    }
    for cond in (z.make_limit_chain(single, lv), z.make_vague_limit(four), z.make_hlambda(four, 0.5 * z.solve_phi(four).phi)):
        out[cond.kind] = mc._run(cond, start, 12.0, n_paths, mc._key(5, 1))
        out[cond.kind + "-window"] = _window_rows(cond, start, 12.0, 3.0, n_paths, mc._key(5, 1))
    return out


def test_results_do_not_depend_on_batch_or_block_size(single_interior, four_state, monkeypatch):
    m, big = 150, 1100  # the patched run splits the larger count into 30 batches
    small = _per_path_outputs(m, single_interior, four_state)
    full = _per_path_outputs(big, single_interior, four_state)
    monkeypatch.setattr(mc, "_BATCH", 37)
    monkeypatch.setattr(mc, "_BLOCKS", 5)
    patched = _per_path_outputs(big, single_interior, four_state)
    monkeypatch.setattr(mc, "_BLOCKS", 1)  # one block per live path on every refill
    single_block = _per_path_outputs(big, single_interior, four_state)
    # every refill on one route, at the full batch: the C route then reads spans of up to 1100 ids
    monkeypatch.setattr(mc, "_BATCH", 1 << 14)
    monkeypatch.setattr(mc, "_BLOCKS", 5)
    routes = {}
    for route in ("c", "emulation"):
        with monkeypatch.context() as forced:
            _force_route(forced, route)
            routes[route] = _per_path_outputs(big, single_interior, four_state)
    for name in small:
        assert np.array_equal(small[name], full[name][:m]), name
        assert np.array_equal(full[name], patched[name]), name
        assert np.array_equal(full[name], single_block[name]), name
        assert np.array_equal(full[name], routes["c"][name]), name
        assert np.array_equal(full[name], routes["emulation"][name]), name
    assert np.isfinite(full["hits"]).any() and np.isfinite(full["vague"]).any()


def test_a_call_within_the_cap_makes_no_batch_drains(monkeypatch):
    # every path is live from the first step, so the call takes exactly as many
    # steps as its longest path has events
    live, events = [], np.zeros(2000, dtype=int)
    take, run = mc._Stream.take, mc._run

    def counted_take(self, width):
        live.append(self.ids.size)
        return take(self, width)

    def observed_run(*args, **kwargs):
        def observe(ids, state, t0, t1, jumped):
            events[ids] += 1
        return run(*args, observe=observe, **kwargs)

    monkeypatch.setattr(mc._Stream, "take", counted_take)
    monkeypatch.setattr(mc, "_run", observed_run)
    z.sample_hitting_times(heavy_bd_spec(20), 1, 2000, 300.0, seed=5)
    assert len(live) == events.max()
    assert live[0] == 2000 and sum(live) == events.sum()


def test_public_samplers_do_not_depend_on_batch_or_block_size(single_interior, four_state, monkeypatch):
    sol = z.solve_phi(single_interior)
    cond = z.make_limit_chain(single_interior, z.limit_vector_recurrent(single_interior, sol))

    def run_all():
        start = AugmentedState.at_origin(0.0)
        return [
            z.estimate_survival(four_state, start, [1.0, 5.0], 1500, seed=2),
            z.estimate_survival(cond, start, [1.0, 5.0], 1500, seed=2),
            z.estimate_tail_ratio(four_state, AugmentedState(0, 0.5), start, 0.5, 4.0, 1500, seed=2),
            z.rejection_window_stats(four_state, start, 6.0, 2.0, 1500, seed=2).tolist(),
            z.conditioned_vs_rejection(single_interior, cond, 6.0, 2.0, 1500, seed=2).occupation_diff.tolist(),
        ]

    before = run_all()
    monkeypatch.setattr(mc, "_BATCH", 64)
    monkeypatch.setattr(mc, "_BLOCKS", 3)
    assert run_all() == before


def test_four_state_survival_calibrated_over_seeds(four_state):
    # one seed proves nothing: the combined z-score of twelve seeds must stay within 4
    curve = z.solve_renewal(four_state, 10.0, 0.005)
    grid = [5.0, 10.0]
    zs = np.array([
        [(e.value - curve.at(t)) / e.stderr
         for t, e in zip(grid, z.estimate_survival(four_state, AugmentedState.at_origin(0.0), grid, 10000, seed=s))]
        for s in range(1, 13)
    ])
    combined = zs.sum(axis=0) / math.sqrt(len(zs))
    assert np.all(np.abs(combined) <= 4.0), combined


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_the_key_word_are_rejected(single_interior, seed):
    start = AugmentedState.at_origin(0.0)
    calls = [
        lambda: z.estimate_survival(single_interior, start, [1.0], 200, seed=seed),
        lambda: z.estimate_tail_ratio(single_interior, start, start, 0.0, 1.0, 200, seed=seed),
        lambda: z.rejection_window_stats(single_interior, start, 3.0, 1.0, 200, seed=seed),
        lambda: z.sample_hitting_times(single_interior, 1, 200, 3.0, seed=seed),
        lambda: z.subexp_diagnostic(np.arange(1.0, 50.0), 2, [2.0, 4.0], seed=seed),
    ]
    for call in calls:
        with pytest.raises(z.PreconditionError):
            call()


class _Words:
    """Uniforms of one path, straight from numpy's Philox, in the documented order:
    the four words of block (p, 1), then of (p, 2), and so on."""

    def __init__(self, key, path):
        self.key, self.path, self.block, self.words = key, path, 0, []

    def __call__(self):
        if not self.words:
            self.block += 1
            self.words = list(_raw_philox(self.key, self.path, self.block))
        return float(self.words.pop(0) >> np.uint64(11)) * 2.0**-53


def _pick(rows, state, u):
    row = rows[state]
    cum = state + np.cumsum(row) / row.sum()
    k = min(int(np.searchsorted(cum[row > 0], state + u, side="right")), int((row > 0).sum()) - 1)
    return int(np.flatnonzero(row > 0)[k])


def _scalar_plain(spec, start, horizon, draw, hit=False):
    """One path by the event loop the engine replaces: tau (or the first hit), inf past the horizon."""
    t, s, clock = 0.0, start.state, start.clock
    while True:
        u_clock, u_target = draw(), draw()
        hold = -math.log1p(-u_clock) / spec.exit_rates[s]
        if s == 0 and hold >= spec.theta - clock and t + spec.theta - clock <= horizon:
            return t + spec.theta - clock
        if t + hold > horizon:
            return math.inf
        t += hold
        s, clock = _pick(spec.rates, s, u_target), 0.0
        if hit and s == 0:
            return t


def _scalar_conditioned(cond, start, horizon, draw):
    """One conditioned path by the event loop: its kill time, inf past the horizon."""
    spec, n = cond.spec, cond.spec.n_states
    rows = np.column_stack([cond.rates, cond.interior_kill])
    rows[0] = np.append(cond.exit_probs, 0.0)
    t, s, clock = 0.0, start.state, start.clock
    a = cond.tilt - spec.q0
    while True:
        u_clock, u_target, u_kill = draw(), draw(), draw()
        if s == 0:
            span = spec.theta - clock
            hold = u_clock * span if abs(a * span) < 1e-9 else math.log1p(u_clock * math.expm1(a * span)) / a
            if cond.kill_mode == "at-time" and u_kill < cond.visit_kill_prob:
                return t + hold if t + hold <= horizon else math.inf
            if cond.kill_mode == "at-threshold" and cond.visit_kill_prob > 0.0:
                if u_kill < cond.visit_kill_prob / cond.origin_survivor(clock):
                    return t + span if t + span <= horizon else math.inf
        else:
            hold = -math.log1p(-u_clock) / cond.hold_rates[s]
        if t + hold > horizon:
            return math.inf
        t += hold
        s, clock = _pick(rows, s, u_target), 0.0
        if s == n:
            return t


def test_engine_replays_the_scalar_event_loop(four_state):
    # same words, same arithmetic up to the order of additions
    key = (9, 0)
    start = AugmentedState(0, 0.3)
    heavy = heavy_bd_spec(20)
    cases = [
        (mc._run(four_state, start, 15.0, 400, key),
         [_scalar_plain(four_state, start, 15.0, _Words(key, p)) for p in range(400)]),
        (z.sample_hitting_times(heavy, 1, 200, 300.0, seed=9),
         [_scalar_plain(heavy, AugmentedState(1), 300.0, _Words(key, p), hit=True) for p in range(200)]),
    ]
    # a tail vector that is not harmonic leaves interior killing
    leaky = z.make_subexp_weak(z.build_birth_death(1.0, 2.0, 12, {1: 1.0}), np.linspace(0.0, 3.0, 13) ** 1.5)
    assert leaky.interior_kill.any()
    for cond in (z.make_vague_limit(four_state), z.make_hlambda(four_state, 0.5 * z.solve_phi(four_state).phi), leaky):
        cases.append((mc._run(cond, start, 12.0, 400, key),
                      [_scalar_conditioned(cond, start, 12.0, _Words(key, p)) for p in range(400)]))
    for got, want in cases:
        want = np.array(want)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert fin.sum() > 20
        np.testing.assert_allclose(got[fin], want[fin], rtol=1e-12)
