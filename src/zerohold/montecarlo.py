"""Event-driven simulation and the statistical estimators built on it.

Reproducibility contract: every estimator derives one RNG stream per path
from (master seed, path index) through a counter-based bit generator, and
runs its paths in index order on the calling thread (``_each_path``).  The
samplers keep a ``threads`` keyword, accepted and ignored, so older callers
still run; the event loops hold the interpreter lock, and a thread pool never
made them faster.

Plain chains are simulated as competing exponentials; the threshold clock at
the origin is tracked alongside, and crossing it marks tau without stopping
the chain (the fast estimators do stop there, nothing after tau matters to
them).  Conditioned chains follow their visit law: tilted exit clocks, exit
targets by transformed weight, and killing per the chain's kill mode.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .chain import AugmentedState, ChainSpec
from .conditioned import ConditionedChain
from .errors import InfeasibleError, PreconditionError

__all__ = [
    "DivergenceReport",
    "Estimate",
    "HarmonicProfile",
    "RatioEstimate",
    "SamplePath",
    "SubexpDiagnostic",
    "conditioned_vs_rejection",
    "estimate_kill_hazard",
    "estimate_survival",
    "estimate_tail_ratio",
    "rejection_window_stats",
    "sample_hitting_times",
    "simulate_path",
    "subexp_diagnostic",
    "verify_harmonic",
]

_BLOCK = 256


def _path_rng(master_seed: int, *key: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


class _Draws:
    """Buffered uniforms on one per-path stream."""

    __slots__ = ("rng", "buf", "pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf = rng.random(_BLOCK)
        self.pos = 0

    def uniform(self) -> float:
        if self.pos == _BLOCK:
            self.buf = self.rng.random(_BLOCK)
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v

    def exponential(self) -> float:
        return -math.log(1.0 - self.uniform())


def _compress_row(weights: np.ndarray) -> tuple[list[float], list[int], float]:
    idx = np.nonzero(weights)[0]
    cum = np.cumsum(weights[idx])
    total = float(cum[-1]) if idx.size else 0.0
    return cum.tolist(), idx.tolist(), total


def _pick(row: tuple[list[float], list[int], float], u: float) -> int:
    cum, targets, total = row
    k = bisect.bisect_right(cum, u * total)
    if k >= len(targets):
        k = len(targets) - 1
    return targets[k]


class _ChainTables:
    __slots__ = ("n", "q0", "theta", "rows", "exit_rates")

    def __init__(self, spec: ChainSpec):
        self.n = spec.n_states
        self.q0 = spec.q0
        self.theta = spec.theta
        self.exit_rates = spec.exit_rates.tolist()
        self.rows = [_compress_row(spec.rates[i]) for i in range(self.n)]


class _CondTables:
    """Sampling tables for a ConditionedChain; kill is target -1."""

    __slots__ = ("n", "q0", "theta", "rows", "hold", "exit_row", "tilt", "pi", "mode", "cond")

    def __init__(self, cond: ConditionedChain):
        spec = cond.spec
        self.n = spec.n_states
        self.q0 = spec.q0
        self.theta = spec.theta
        self.tilt = cond.tilt
        self.pi = cond.visit_kill_prob
        self.mode = cond.kill_mode
        self.cond = cond
        self.hold = cond.hold_rates.tolist()
        self.exit_row = _compress_row(cond.exit_probs)
        self.rows = []
        for i in range(self.n):
            w = np.append(cond.rates[i], cond.interior_kill[i])
            cum, targets, total = _compress_row(w)
            targets = [-1 if j == self.n else j for j in targets]
            self.rows.append((cum, targets, total))


def _tilted_clock(u: float, a: float, lo: float, hi: float) -> float:
    """Inverse transform for density proportional to exp(a x) on [lo, hi)."""
    span = hi - lo
    if abs(a * span) < 1e-9:
        return lo + u * span
    return lo + math.log1p(u * math.expm1(a * span)) / a


def _run_plain(
    tb: _ChainTables,
    state: int,
    clock: float,
    horizon: float,
    d: _Draws,
    record: bool,
    stop_at_tau: bool,
):
    t = 0.0
    tau = math.inf
    times: list[float] = []
    states: list[int] = []
    while True:
        if state == 0:
            hold = d.exponential() / tb.q0
            if math.isinf(tau) and hold >= tb.theta - clock:
                cand = t + (tb.theta - clock)
                if cand <= horizon:
                    tau = cand
                    if stop_at_tau:
                        return tau, False, times, states
            jump = t + hold
            if jump > horizon:
                return tau, False, times, states
            t = jump
            state = _pick(tb.rows[0], d.uniform())
            clock = 0.0
        else:
            jump = t + d.exponential() / tb.exit_rates[state]
            if jump > horizon:
                return tau, False, times, states
            t = jump
            state = _pick(tb.rows[state], d.uniform())
            clock = 0.0
        if record:
            times.append(t)
            states.append(state)


def _first_hit(tb: _ChainTables, state: int, horizon: float, d: _Draws) -> float:
    """First entry to the origin from interior ``state``; inf past the horizon."""
    t = 0.0
    while True:
        t += d.exponential() / tb.exit_rates[state]
        if t > horizon:
            return math.inf
        state = _pick(tb.rows[state], d.uniform())
        if state == 0:
            return t


def _run_cond(
    ct: _CondTables,
    state: int,
    clock: float,
    horizon: float,
    d: _Draws,
    record: bool,
):
    t = 0.0
    times: list[float] = []
    states: list[int] = []
    a = ct.tilt - ct.q0
    while True:
        if state == 0:
            v = _tilted_clock(d.uniform(), a, clock, ct.theta)
            if ct.mode == "at-time":
                if d.uniform() < ct.pi:
                    kill_t = t + (v - clock)
                    if kill_t > horizon:
                        return math.inf, False, times, states
                    return kill_t, True, times, states
            elif ct.mode == "at-threshold":
                p_kill = ct.pi / ct.cond.origin_survivor(clock) if ct.pi > 0.0 else 0.0
                if d.uniform() < p_kill:
                    kill_t = t + (ct.theta - clock)
                    if kill_t > horizon:
                        return math.inf, False, times, states
                    return kill_t, True, times, states
            jump = t + (v - clock)
            if jump > horizon:
                return math.inf, False, times, states
            t = jump
            state = _pick(ct.exit_row, d.uniform())
            clock = 0.0
        else:
            rate = ct.hold[state]
            jump = t + d.exponential() / rate
            if jump > horizon:
                return math.inf, False, times, states
            t = jump
            target = _pick(ct.rows[state], d.uniform())
            if target == -1:
                return t, True, times, states
            state = target
            clock = 0.0
        if record:
            times.append(t)
            states.append(state)


def _make_tables(chain):
    if isinstance(chain, ConditionedChain):
        return _CondTables(chain)
    return _ChainTables(chain)


def _check_start(chain, start: AugmentedState) -> None:
    spec = chain.spec if isinstance(chain, ConditionedChain) else chain
    if not 0 <= start.state < spec.n_states:
        raise PreconditionError(f"start state {start.state} out of range")
    if start.state == 0 and not start.clock < spec.theta:
        raise PreconditionError(f"start clock {start.clock} must be below {spec.theta}")


@dataclass(frozen=True)
class SamplePath:
    """One simulated trajectory on [0, horizon].

    ``times``/``states`` list the jump epochs and the state entered at each.
    ``tau`` is the first time the origin clock reaches the threshold (inf if
    that never happens before the horizon); for conditioned chains it is the
    kill time and ``killed`` is set.  A plain chain keeps running past tau.
    """

    times: np.ndarray
    states: np.ndarray
    start: AugmentedState
    horizon: float
    tau: float
    killed: bool
    seed: int


def simulate_path(chain, start: AugmentedState, horizon: float, seed: int) -> SamplePath:
    """Simulate one path of a ChainSpec or ConditionedChain from ``start``."""
    if horizon <= 0.0:
        raise PreconditionError("horizon must be positive")
    _check_start(chain, start)
    tb = _make_tables(chain)
    d = _Draws(_path_rng(seed, 0))
    if isinstance(tb, _CondTables):
        tau, killed, times, states = _run_cond(tb, start.state, start.clock, horizon, d, True)
    else:
        tau, killed, times, states = _run_plain(
            tb, start.state, start.clock, horizon, d, True, stop_at_tau=False
        )
    return SamplePath(
        times=np.array(times),
        states=np.array(states, dtype=int),
        start=start,
        horizon=horizon,
        tau=tau,
        killed=killed,
        seed=seed,
    )


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its standard error and provenance."""

    value: float
    stderr: float
    n: int
    seed: int


def _mean_estimate(x: np.ndarray, seed: int) -> Estimate:
    n = len(x)
    sd = float(np.std(x, ddof=1)) if n > 1 else 0.0
    return Estimate(value=float(np.mean(x)), stderr=sd / math.sqrt(n), n=n, seed=seed)


def _check_paths(n_paths: int, least: int = 1) -> None:
    """Reject a path count below ``least``: 2 where a sample variance is taken."""
    if n_paths < least:
        raise PreconditionError(f"need at least {least} paths, got {n_paths}")


def _each_path(n_paths: int, seed: int, key: tuple, one) -> list:
    """``one(draws)`` for each path in index order; path p draws from (seed, *key, p)."""
    return [one(_Draws(_path_rng(seed, *key, p))) for p in range(n_paths)]


def _sample_taus(chain, start: AugmentedState, horizon: float, n_paths: int, seed: int,
                 key: tuple = ()) -> np.ndarray:
    tb = _make_tables(chain)
    if isinstance(tb, _CondTables):
        def one(d: _Draws) -> float:
            return _run_cond(tb, start.state, start.clock, horizon, d, False)[0]
    else:
        def one(d: _Draws) -> float:
            return _run_plain(tb, start.state, start.clock, horizon, d, False, True)[0]
    return np.array(_each_path(n_paths, seed, key, one))


def estimate_survival(
    chain,
    start: AugmentedState,
    t_grid,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> list[Estimate]:
    """Estimate P(tau > t) at each grid time, one common path set for all t.

    Grid times must be nonnegative with a positive largest one; otherwise
    :class:`PreconditionError`.
    """
    _check_paths(n_paths, 100)
    _check_start(chain, start)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or not t_grid.max() > 0.0:
        raise PreconditionError("survival grid times must be nonnegative, the largest positive")
    taus = _sample_taus(chain, start, float(t_grid.max()), n_paths, seed)
    return [_mean_estimate((taus > t).astype(float), seed) for t in t_grid]


@dataclass(frozen=True)
class RatioEstimate:
    """Ratio of survival probabilities with a delta-method standard error."""

    value: float
    stderr: float
    n: int
    seed: int
    unreliable: bool
    survivors_num: int
    survivors_den: int


def estimate_tail_ratio(
    spec: ChainSpec,
    i: AugmentedState,
    j: AugmentedState,
    v: float,
    t: float,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> RatioEstimate:
    """Estimate s_i(t - v) / s_j(t); common random paths when i == j."""
    if not t > v >= 0.0:
        raise PreconditionError("need t > v >= 0")
    _check_paths(n_paths, 2)
    _check_start(spec, i)
    _check_start(spec, j)
    same = i == j
    taus_i = _sample_taus(spec, i, t, n_paths, seed, (0,))
    taus_j = taus_i if same else _sample_taus(spec, j, t, n_paths, seed, (1,))
    x = (taus_i > t - v).astype(float)
    y = (taus_j > t).astype(float)
    mx, my = float(x.mean()), float(y.mean())
    sx, sy = int(x.sum()), int(y.sum())
    if my == 0.0:
        return RatioEstimate(math.nan, math.nan, n_paths, seed, True, sx, sy)
    r = mx / my
    vx = float(np.var(x, ddof=1)) / n_paths
    vy = float(np.var(y, ddof=1)) / n_paths
    cov = float(np.cov(x, y, ddof=1)[0, 1]) / n_paths if same else 0.0
    var = r * r * (vx / mx**2 + vy / my**2 - 2.0 * cov / (mx * my)) if mx > 0.0 else vx / my**2
    se = math.sqrt(max(var, 0.0))
    return RatioEstimate(r, se, n_paths, seed, sy < 10, sx, sy)


@dataclass(frozen=True)
class HarmonicProfile:
    """Per-time estimates of E[e^{phi (t ^ tau)} h(state at t ^ tau)]."""

    t: np.ndarray
    estimates: list[Estimate]
    per_path: np.ndarray
    phi: float
    seed: int

    def drift(self, a: int, b: int) -> Estimate:
        """Paired-difference estimate between grid indices b and a."""
        return _mean_estimate(self.per_path[:, b] - self.per_path[:, a], self.seed)


def verify_harmonic(
    spec: ChainSpec,
    h: np.ndarray,
    phi: float,
    t_grid,
    n_paths: int,
    seed: int,
    h_origin=None,
    threads: int = 1,
) -> HarmonicProfile:
    """Profile of the stopped space-time mean; constant when e^{phi t} h is harmonic.

    ``h`` gives values per state (entry 0 = origin with fresh clock);
    ``h_origin`` optionally refines the origin value as a function of the
    running clock, and its limit at the threshold is the value credited to
    stopped paths.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (spec.n_states,):
        raise PreconditionError("h must give one value per state")
    if not np.all(h > 0.0) or not np.all(np.isfinite(h)):
        raise PreconditionError("h must be positive and bounded")
    _check_paths(n_paths, 2)
    t_grid = np.asarray(t_grid, dtype=float)
    horizon = float(t_grid.max())
    tb = _ChainTables(spec)
    theta = spec.theta
    h_kill = h_origin(theta * (1.0 - 1e-12)) if h_origin is not None else float(h[0])

    def one(d: _Draws) -> np.ndarray:
        tau, _, times, states = _run_plain(tb, 0, 0.0, horizon, d, True, True)
        out = np.empty(len(t_grid))
        idx = 0
        cur_state = 0
        cur_since = 0.0
        for k, t in enumerate(t_grid):
            if tau <= t:
                out[k] = math.exp(phi * tau) * h_kill
                continue
            while idx < len(times) and times[idx] <= t:
                cur_state = states[idx]
                cur_since = times[idx]
                idx += 1
            if cur_state == 0:
                if h_origin is not None:
                    val = h_origin(min(t - cur_since, theta * (1.0 - 1e-12)))
                else:
                    val = h[0]
            else:
                val = h[cur_state]
            out[k] = math.exp(phi * t) * val
        return out

    per_path = np.array(_each_path(n_paths, seed, (), one))
    ests = [_mean_estimate(per_path[:, k], seed) for k in range(len(t_grid))]
    return HarmonicProfile(t=t_grid, estimates=ests, per_path=per_path, phi=phi, seed=seed)


@dataclass(frozen=True)
class DivergenceReport:
    """Comparison of the rejection-sampled X^T window against a conditioned chain."""

    occupation_diff: np.ndarray
    occupation_se: np.ndarray
    max_diff_in_se: float
    chi2_stat: float
    chi2_pvalue: float
    n_rejection: int
    n_conditioned: int
    acceptance_rate: float
    seed: int


def _window_stats(times, states, start_state: int, s: float, n: int) -> np.ndarray:
    """Row of occupation fractions on [0, s], then the jump count within it."""
    row = np.zeros(n + 1)
    prev_t = 0.0
    prev_state = start_state
    jumps = 0
    for t, st in zip(times, states):
        if t >= s:
            break
        row[prev_state] += t - prev_t
        prev_t = t
        prev_state = st
        jumps += 1
    row[prev_state] += s - prev_t
    row[:n] /= s
    row[n] = jumps
    return row


def rejection_window_stats(
    spec: ChainSpec,
    start: AugmentedState,
    T: float,
    s: float,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Window statistics of the paths from ``start`` that survive to ``T``.

    One row per accepted path, in path-index order: occupation fractions of
    each state on [0, s], then the jump count within the window.  Path ``p``
    draws from the stream keyed (seed, 0, p).
    """
    if not (T > 0.0 and s > 0.0):
        raise PreconditionError("horizon and window must be positive")
    _check_paths(n_paths)
    _check_start(spec, start)
    n = spec.n_states
    tb = _ChainTables(spec)

    def one(d: _Draws):
        tau, _, times, states = _run_plain(tb, start.state, start.clock, T, d, True, True)
        return _window_stats(times, states, start.state, s, n) if math.isinf(tau) else None

    rows = [row for row in _each_path(n_paths, seed, (0,), one) if row is not None]
    return np.array(rows).reshape(-1, n + 1)


def conditioned_vs_rejection(
    spec: ChainSpec,
    cond: ConditionedChain,
    T: float,
    s: float,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> DivergenceReport:
    """Compare paths conditioned on tau > T (by rejection) with ``cond`` on [0, s].

    ``n_paths`` counts rejection proposals; the conditioned arm is matched to
    the accepted count.  Raises InfeasibleError when fewer than one in 10^4
    proposals, or fewer than two, are accepted.
    """
    if not s < T:
        raise PreconditionError("observation window must end before the conditioning horizon")
    _check_paths(n_paths, 2)
    n = spec.n_states
    rej = rejection_window_stats(spec, AugmentedState.at_origin(0.0), T, s, n_paths, seed)
    accepted = rej.shape[0]
    rate = accepted / n_paths
    if rate < 1e-4 or accepted < 2:
        raise InfeasibleError(
            f"rejection acceptance rate {rate:.2e} below 1e-4 or fewer than 2 paths "
            f"accepted ({accepted}/{n_paths} paths)"
        )
    ct = _CondTables(cond)

    def one(d: _Draws) -> np.ndarray:
        _, _, times, states = _run_cond(ct, 0, 0.0, s * (1.0 + 1e-12), d, True)
        return _window_stats(times, states, 0, s, n)

    con = np.array(_each_path(accepted, seed, (1,), one))

    occ_r, occ_c = rej[:, :n], con[:, :n]
    diff = occ_r.mean(axis=0) - occ_c.mean(axis=0)
    se = np.sqrt(occ_r.var(axis=0, ddof=1) / accepted + occ_c.var(axis=0, ddof=1) / accepted)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(se > 0.0, np.abs(diff) / se, 0.0)
    stat, pval = _jump_count_chi2(rej[:, n].astype(int), con[:, n].astype(int))
    return DivergenceReport(
        occupation_diff=diff,
        occupation_se=se,
        max_diff_in_se=float(ratios.max()),
        chi2_stat=stat,
        chi2_pvalue=pval,
        n_rejection=accepted,
        n_conditioned=accepted,
        acceptance_rate=rate,
        seed=seed,
    )


def _jump_count_chi2(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample chi-square on jump-count histograms, pooling sparse bins."""
    hi = int(max(a.max(), b.max()))
    ca = np.bincount(a, minlength=hi + 1).astype(float)
    cb = np.bincount(b, minlength=hi + 1).astype(float)
    na, nb = ca.sum(), cb.sum()
    # pool adjacent counts until the expected frequency reaches 5 in each arm
    bins_a, bins_b = [], []
    acc_a = acc_b = 0.0
    for k in range(hi + 1):
        acc_a += ca[k]
        acc_b += cb[k]
        pooled = (acc_a + acc_b) / (na + nb)
        if min(na, nb) * pooled >= 5.0:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if bins_a:
            bins_a[-1] += acc_a
            bins_b[-1] += acc_b
        else:
            bins_a, bins_b = [acc_a], [acc_b]
    oa = np.array(bins_a)
    ob = np.array(bins_b)
    if len(oa) < 2:
        return 0.0, 1.0
    p_pool = (oa + ob) / (na + nb)
    ea = na * p_pool
    eb = nb * p_pool
    stat = float(np.sum((oa - ea) ** 2 / ea) + np.sum((ob - eb) ** 2 / eb))
    dof = len(oa) - 1
    return stat, float(chdtrc(dof, stat))


@dataclass(frozen=True)
class SubexpDiagnostic:
    """Empirical n-fold tail ratio curve with its reliability flags."""

    t: np.ndarray
    ratio: np.ndarray
    reliable: np.ndarray
    order: int
    consistent: bool
    unreliable: bool
    degenerate: bool
    seed: int


def subexp_diagnostic(samples, n: int, t_grid, seed: int = 0) -> SubexpDiagnostic:
    """Ratio of the n-fold-sum tail to the sample tail over a time grid.

    Sums use independent resampling with replacement.  Censored observations
    (inf) are handled exactly for grid times below the censoring horizon.
    The ``consistent`` flag reports whether the curve stays at or below
    n * 1.25 over the last decade of reliably covered times; it is a trend
    indicator, never a certificate.
    """
    if n < 2:
        raise PreconditionError("convolution order must be at least 2")
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise PreconditionError("need at least two samples")
    t_grid = np.asarray(t_grid, dtype=float)
    finite = samples[np.isfinite(samples)]
    degenerate = finite.size == 0 or (np.ptp(finite) == 0.0 and finite.size == samples.size)
    rng = _path_rng(seed, 0)
    m = samples.size
    sums = samples[rng.integers(0, m, size=(m, n))].sum(axis=1)
    tail_one = (samples[None, :] > t_grid[:, None]).sum(axis=1)
    tail_n = (sums[None, :] > t_grid[:, None]).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tail_one > 0, (tail_n / m) / (tail_one / m), np.nan)
    reliable = (tail_one >= 50) & (tail_n >= 50)
    med = float(np.median(sums))
    unreliable = int(np.sum(samples > med)) < 50
    consistent = False
    if not degenerate and reliable.any():
        t_hi = float(t_grid[reliable].max())
        region = reliable & (t_grid >= t_hi / 10.0)
        vals = ratio[region]
        vals = vals[np.isfinite(vals)]
        consistent = vals.size > 0 and bool(np.all(vals <= n * 1.25))
    return SubexpDiagnostic(
        t=t_grid,
        ratio=ratio,
        reliable=reliable,
        order=n,
        consistent=consistent,
        unreliable=unreliable,
        degenerate=degenerate,
        seed=seed,
    )


def sample_hitting_times(
    spec: ChainSpec,
    state: int,
    n_paths: int,
    horizon: float,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """First-passage times to the origin from an interior state, inf when censored."""
    if not 1 <= state < spec.n_states:
        raise PreconditionError(f"state {state} is not interior")
    if not horizon > 0.0:
        raise PreconditionError("horizon must be positive")
    _check_paths(n_paths)
    tb = _ChainTables(spec)
    return np.array(_each_path(n_paths, seed, (), lambda d: _first_hit(tb, state, horizon, d)))


def estimate_kill_hazard(
    cond: ConditionedChain,
    n_visits: int,
    seed: int,
    n_bins: int = 12,
) -> tuple[np.ndarray, list[Estimate]]:
    """Binned empirical kill hazard over origin-visit clocks, for at-time killing."""
    if cond.killing_hazard is None:
        raise PreconditionError("chain has no killing hazard to estimate")
    theta = cond.spec.theta
    a = cond.tilt - cond.spec.q0
    rng = _path_rng(seed, 0)
    u = rng.random(n_visits)
    span = math.expm1(a * theta)
    ends = np.log1p(u * span) / a if abs(a * theta) >= 1e-9 else u * theta
    kills = rng.random(n_visits) < cond.visit_kill_prob
    edges = np.linspace(0.0, theta, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = []
    for k in range(n_bins):
        at_risk = float(np.clip(ends, edges[k], edges[k + 1]).sum() - edges[k] * n_visits)
        n_kill = int(np.sum(kills & (ends >= edges[k]) & (ends < edges[k + 1])))
        if at_risk <= 0.0:
            out.append(Estimate(math.nan, math.nan, n_visits, seed))
            continue
        out.append(
            Estimate(
                value=n_kill / at_risk,
                stderr=math.sqrt(max(n_kill, 1)) / at_risk,
                n=n_visits,
                seed=seed,
            )
        )
    return centers, out
