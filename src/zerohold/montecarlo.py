"""Event-driven simulation and the statistical estimators built on it.

Reproducibility contract.  Every uniform is drawn from Philox4x64-10 (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) under the key
(seed, stream), for a seed in [0, 2**64); anything else raises
:class:`PreconditionError`.  Stream 0 carries the paths of a sampler, stream 1
its second arm (the ``j`` start of a tail ratio, the conditioned arm of a
comparison) and stream 2 the resampling draws of the subexponential
diagnostic.  Block b = 1, 2, ... of path p is the counter (p, b, 0, 0), and
each word w of it gives the uniform (w >> 11) * 2**-53.  Path p reads the
four words of block 1, then of block 2, and so on.  Every event takes a fixed
run of words: a plain event reads (clock, target), a conditioned event
(clock, target, kill), where the kill word is read only by an origin visit
under a killing mode.  A path's results therefore depend on nothing but the
seed, its stream and its index.

The samplers advance every live path by one event per numpy step (``_run``);
finished paths are compacted out.  Every path of a call is live from the first
step, so a call takes as many steps as its longest path has events.  Only a
call of more than ``_BATCH`` paths runs in chunks of ``_BATCH``.  A path
still live after ``_MAX_EVENTS`` events raises :class:`InfeasibleError`.  A
refill makes the words of a grid of blocks by live paths, at most
``_BLOCKS`` blocks, or one per live path when more are live; they are kept
word-major, so an event reads its words as rows.  numpy's Philox steps counter word 0, so for
one block index the paths lo .. hi are one run of counters: a refill reads
each block index across the live id range in one ``random_raw`` call of
``numpy.random.Philox(key=[seed, stream])``, or, when few paths of that range
are live, emulates Philox on just their counters (``_words``).  Neither
constant nor the route changes a result.

Plain chains are simulated as competing exponentials; the threshold clock at
the origin is tracked alongside, and a path stops where it crosses, at tau.
Conditioned chains follow their visit law: tilted exit clocks, exit targets by
transformed weight, and killing per the chain's kill mode.  Targets come from
a binary search of the row-offset table i + cum_i / total_i within the
state's own row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import LimitVector
from .chain import AugmentedState, ChainSpec
from .conditioned import ConditionedChain
from .errors import InfeasibleError, PreconditionError

__all__ = [
    "DivergenceReport",
    "Estimate",
    "HarmonicProfile",
    "RatioEstimate",
    "SubexpDiagnostic",
    "conditioned_vs_rejection",
    "estimate_survival",
    "estimate_tail_ratio",
    "rejection_window_stats",
    "sample_hitting_times",
    "subexp_diagnostic",
    "verify_harmonic",
]

# The live-set cap.  A live path holds about 140 bytes of working arrays, so
# 2**14 paths take about 2.3 MB.  One 60,000-path transient-walk call took
# 2.2-2.5 s at 512 paths, 1.0-1.25 s at 2**14 and 0.9-0.95 s at 2**16
# (8.2 MB), single-threaded on a 2-CPU machine.
_BATCH = 1 << 14
# The refill cap.  An emulated refill of N blocks peaks at about 110 N bytes
# inside _philox (traced at 8192 blocks: its counter words, a product's
# temporaries and the stacked words); one through numpy's Philox holds its raw
# array of 4 words per id of the live range, at most 4 _BATCH words (512 KB),
# and its block's words.  The largest live sets of a benchmark pass
# (10,000-12,000 paths) make refills of one block per path.  On a seed-1
# mc-paths pass, 8192 makes 86 refills (65 through numpy, in 178 calls, and 21
# emulated) and 544,666 blocks; 2048 makes 214 refills and 494,596 blocks,
# 16384 makes 51 and 605,351 (words of paths that end).  Alternated in-process
# passes at seed 5 took a median 139 ms at 8192, 148 at 4096, 150 at 2048 and
# 151 at 16384, all within one another's quartiles.
_BLOCKS = 8192
# Route costs of a refill in ns (see _words): numpy's Philox per call (setting
# its counter is most of it) and per word read, the emulation per call and per
# block made; measured on a 2-CPU machine.  Near the break-even both routes
# cost the same, so the choice is not sensitive to these.  Forcing one route
# for every refill made alternated seed-5 passes slower: 184 ms emulated only
# and 198 ms through numpy only, against 142 ms when each refill takes the
# cheaper route.  Timed alternately with the earlier in-place rounds in one
# process, on grids of 9 to 16,384 blocks, the broadcast _philox fits 225-235 us
# per call and 120-190 ns per block over runs, within 10 % of those rounds.
_C_CALL_NS, _C_WORD_NS, _E_CALL_NS, _E_BLOCK_NS = 5000, 9, 300000, 125
# The event budget of one path: _run raises InfeasibleError on a path that
# has not ended after this many events.  A path makes about horizon x rate
# events; the benchmark's longest, diagnose-subexp on heavy40 (horizon 3,000,
# hold rates up to 2), makes at most some 6,000.  A step of a few hundred live
# paths takes about 20 us, so a call whose rates dwarf its horizon stops in
# about 2 s.
_MAX_EVENTS = 100_000

_MASK64 = (1 << 64) - 1
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)


def _key(seed: int, stream: int) -> tuple[int, int]:
    if not 0 <= seed < 2**64:
        raise PreconditionError(f"seed {seed} outside [0, 2**64)")
    return int(seed), stream


def _generator(seed: int, stream: int) -> np.random.Generator:
    """numpy's own Philox under the same key, for draws not tied to a path."""
    return np.random.Generator(np.random.Philox(key=np.array(_key(seed, stream), dtype=np.uint64)))


def _mulhilo(m: np.uint64, x):
    """The high and low words of the 128-bit product m * x, from 32-bit halves."""
    a, b, c, d = x & _LO32, x >> _S32, m & _LO32, m >> _S32
    ad = a * d
    mid = (a * c >> _S32) + (ad & _LO32) + b * c  # < 2**64
    return (mid >> _S32) + (ad >> _S32) + b * d, m * x


def _philox(key: tuple[int, int], paths: np.ndarray, blocks: np.ndarray) -> tuple:
    """The four Philox4x64-10 words of the counters (p, b, 0, 0), each of shape
    (blocks.size, paths.size), for p in ``paths`` and b in ``blocks`` (uint64).

    Philox's ten rounds, written plainly, on a counter of broadcastable pieces:
    a word that depends on p alone or on b alone stays a vector (or a scalar)
    until a round mixes the two.  Round 3's M1 product is the first on the
    full grid, so 15 of the 20 products run there.
    """
    c0, c1, c2, c3 = paths[None, :], blocks[:, None], np.uint64(0), np.uint64(0)
    for r in range(10):
        k0, k1 = (np.uint64((k + r * w) & _MASK64) for k, w in zip(key, _PHILOX_W))
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _words(key: tuple[int, int], block: int, count: int, ids: np.ndarray, philox) -> np.ndarray:
    """The words of blocks ``block`` .. ``block + count - 1`` of the paths ``ids``
    (ascending), shape (count, 4, ids.size), uint64.

    numpy's Philox steps counter word 0, so one ``random_raw`` call reads a
    block index across the whole id range ids[0] .. ids[-1]; ``philox()`` gives
    that generator under ``key``.  It is used when the live paths fill enough
    of their range to beat the emulation, which makes only the live paths'
    words.  Both give the same words, so the route changes no result.
    """
    m, lo = ids.size, int(ids[0])
    span = int(ids[-1]) - lo + 1
    if count * (_C_CALL_NS + 4 * span * _C_WORD_NS) > _E_CALL_NS + count * m * _E_BLOCK_NS:
        return np.stack(_philox(key, ids.astype(np.uint64), np.arange(block, block + count, dtype=np.uint64)),
                        axis=1)
    bg, out, rows = philox(), np.empty((count, m, 4), dtype=np.uint64), ids - lo
    state = {"bit_generator": "Philox", "state": {"counter": None, "key": np.array(key, dtype=np.uint64)},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for j in range(count):
        # numpy bumps the counter before each block, so start one below (lo, block + j, 0, 0)
        c = (lo | (block + j) << 64) - 1
        state["state"]["counter"] = np.array([(c >> s) & _MASK64 for s in (0, 64, 128, 192)], dtype=np.uint64)
        bg.state = state
        # take gathers rows of 4 words several times faster than fancy indexing
        out[j] = bg.random_raw(4 * span).reshape(span, 4).take(rows, axis=0)
    return out.transpose(0, 2, 1)  # (count, 4, m), word-major like the emulation's


class _Stream:
    """Uniforms of the live paths ``ids`` of one keyed stream, read in word order.

    The buffer is word-major, (words, paths), so an event's words are rows.
    Finished paths leave the index ``rows`` into the buffer, not the buffer
    itself, so compaction copies no words; until a path finishes there is no
    index and ``take`` returns a view.
    """

    def __init__(self, key: tuple[int, int], ids: np.ndarray):
        self.key = key
        self.ids = ids
        self.block = 1
        self.buf = np.empty((0, ids.size))
        self.rows = None
        self.pos = 0
        self.bg = None

    def philox(self):
        """numpy's Philox under this stream's key, made on first use: it loads ``numpy.random``."""
        if self.bg is None:
            self.bg = np.random.Philox(key=np.array(self.key, dtype=np.uint64))
        return self.bg

    def take(self, width: int) -> np.ndarray:
        if self.buf.shape[0] - self.pos < width:
            # blocks per call double from 4 up to the cap, so a long last path wastes little
            m = self.ids.size
            count = max(-(-width // 4), min(_BLOCKS // m, max(4, self.block - 1)))
            words = _words(self.key, self.block, count, self.ids, self.philox)
            words >>= _S11
            left = self.buf.shape[0] - self.pos
            buf = np.empty((left + 4 * count, m))
            buf[:left] = self._view(self.pos, None)
            np.multiply(words, 2.0**-53, out=buf[left:].reshape(count, 4, m))
            self.buf = buf
            self.rows = None
            self.pos = 0
            self.block += count
        self.pos += width
        return self._view(self.pos - width, self.pos)

    def _view(self, lo: int, hi: int | None) -> np.ndarray:
        return self.buf[lo:hi] if self.rows is None else np.take(self.buf[lo:hi], self.rows, axis=1)

    def keep(self, mask: np.ndarray) -> None:
        self.ids = self.ids[mask]
        self.rows = np.flatnonzero(mask) if self.rows is None else self.rows[mask]


@dataclass(frozen=True)
class _Tables:
    """Event rates and the row-offset target table of a plain or conditioned chain.

    ``cum`` holds, row after row, i + cum_i / total_i at each positive entry of
    row i; ``first`` and ``last`` are each row's offsets in it and ``steps``
    the halvings that its longest row takes.
    """

    spec: ChainSpec
    rates: np.ndarray
    cum: np.ndarray
    targets: np.ndarray
    first: np.ndarray
    last: np.ndarray
    steps: int
    cond: ConditionedChain | None

    def pick(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The first entry of each state's row above state + u, searched within the row;
        its last entry where the sum rounds up to state + 1.

        The answer is ``hi``, which only moves down to a ``mid`` of the row.
        Where the sum rounds up, ``lo`` ends one past ``hi``, and ``mid`` then
        stays at ``hi``: no search leaves its row.
        """
        x = state + u
        lo, hi = self.first[state], self.last[state]
        for step in range(self.steps, 0, -1):
            mid = (lo + hi) >> 1
            right = self.cum[mid] <= x
            if step > 1:  # the last halving leaves lo unread
                lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        return self.targets[hi]


def _tables(chain) -> _Tables:
    """Plain rows are the rates; a conditioned origin row is ``exit_probs`` and
    interior rows end in a kill column (target n).  Only rows with exits are
    normalised: a conditioned state with none is never entered."""
    if isinstance(chain, ConditionedChain):
        spec, cond = chain.spec, chain
        rows = np.column_stack([chain.rates, chain.interior_kill])
        rows[0] = np.append(chain.exit_probs, 0.0)
        rates = chain.hold_rates.copy()
        rates[0] = 1.0  # origin holds follow the tilted clock instead
    else:
        spec, cond = chain, None
        rows, rates = chain.rates, chain.exit_rates
    nz = rows > 0.0
    cum = np.cumsum(rows, axis=1)
    total = cum[:, -1:]
    cum = np.arange(spec.n_states)[:, None] + np.divide(cum, total, out=np.zeros_like(cum), where=total > 0.0)
    width = nz.sum(axis=1)
    last = np.cumsum(width) - 1
    steps = int(width.max() - 1).bit_length()  # ceil(log2) of the longest row
    return _Tables(spec, rates, cum[nz], np.nonzero(nz)[1], last - width + 1, last, steps, cond)


def _tilted_hold(u: np.ndarray, a: float, span: float) -> np.ndarray:
    """Inverse transform for a hold with density proportional to exp(a x) on [0, span)."""
    if abs(a * span) < 1e-9:
        return u * span
    return np.log1p(u * math.expm1(a * span)) / a


def _run(chain, start: AugmentedState, horizon: float, n_paths: int, key, stop="tau",
         observe=None, first=0) -> np.ndarray:
    """Stop times of paths first .. first+n_paths-1 of stream ``key``; inf when none falls by ``horizon``.

    A plain chain stops at tau (``stop="tau"``) or at its first entry to the
    origin (``"hit"``); a conditioned chain stops at its kill.  ``observe(ids,
    state, t0, t1, jumped)`` sees every step: the live paths, the state each
    holds from t0 to t1, and whether the hold ends in a jump (else the path ends).
    """
    tb = _tables(chain)
    theta, q0, cond, n = tb.spec.theta, tb.spec.q0, tb.cond, tb.spec.n_states
    out = np.full(n_paths, math.inf)
    for lo in range(first, first + n_paths, _BATCH):
        draws = _Stream(key, np.arange(lo, min(lo + _BATCH, first + n_paths)))
        state = np.full(draws.ids.size, start.state)
        t = np.zeros(draws.ids.size)
        clock = start.clock  # every live path is at the same event, so the clock is shared
        events = 0
        while state.size:
            events += 1
            if events > _MAX_EVENTS:
                raise InfeasibleError(
                    f"a path has more than {_MAX_EVENTS:,} events by time {horizon:g}: the rates dwarf the horizon"
                )
            ids = draws.ids
            u = draws.take(2 if cond is None else 3)
            at0 = state == 0
            left = theta - clock
            hold = -np.log1p(-u[0]) / tb.rates[state]
            target = tb.pick(state, u[1])
            if cond is None:
                stopped = at0 & (hold >= left)
                hold[stopped] = left
            else:
                hold[at0] = _tilted_hold(u[0, at0], cond.tilt - q0, left)
                stopped = target == n
                if cond.kill_mode != "none":
                    p_kill = cond.visit_kill_prob
                    if cond.kill_mode == "at-threshold" and p_kill > 0.0:
                        p_kill /= cond.origin_survivor(clock)
                    kill0 = at0 & (u[2] < p_kill)
                    if cond.kill_mode == "at-threshold":
                        hold[kill0] = left
                    stopped |= kill0
            end = t + hold
            jumped = end <= horizon
            stopped &= jumped
            out[ids[stopped] - first] = end[stopped]
            jumped &= ~stopped
            keep = jumped
            if stop == "hit":
                hit = jumped & (target == 0)
                out[ids[hit] - first] = end[hit]
                keep = jumped & ~hit
            if observe is not None:
                observe(ids, state, t, end, jumped)
            if keep.all():
                state, t = target, end
            else:
                state, t = target[keep], end[keep]
                draws.keep(keep)
            clock = 0.0
    return out


def _check_start(chain, start: AugmentedState) -> None:
    (chain.spec if isinstance(chain, ConditionedChain) else chain).check_start(start)
    if isinstance(chain, ConditionedChain) and chain.h_values[start.state] == 0.0:
        raise PreconditionError(f"start state {start.state} has h = 0, which the conditioned chain never enters")


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


def _check_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if not t_grid.size or np.any(t_grid < 0.0) or not t_grid.max() > 0.0:
        raise PreconditionError("grid times must be nonempty and nonnegative, the largest positive")
    return t_grid


def _check_paths(n_paths: int, least: int = 1) -> None:
    """Reject a path count below ``least``: 2 where a sample variance is taken."""
    if n_paths < least:
        raise PreconditionError(f"need at least {least} paths, got {n_paths}")


def estimate_survival(
    chain,
    start: AugmentedState,
    t_grid,
    n_paths: int,
    seed: int,
) -> list[Estimate]:
    """Estimate P(tau > t) at each grid time, one common path set for all t.

    Grid times must be nonnegative with a positive largest one; otherwise
    :class:`PreconditionError`.
    """
    _check_paths(n_paths, 100)
    _check_start(chain, start)
    t_grid = _check_grid(t_grid)
    taus = _run(chain, start, float(t_grid.max()), n_paths, _key(seed, 0))
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
) -> RatioEstimate:
    """Estimate s_i(t - v) / s_j(t); common random paths when i == j."""
    if not t > v >= 0.0:
        raise PreconditionError("need t > v >= 0")
    _check_paths(n_paths, 2)
    _check_start(spec, i)
    _check_start(spec, j)
    same = i == j
    taus_i = _run(spec, i, t, n_paths, _key(seed, 0))
    taus_j = taus_i if same else _run(spec, j, t, n_paths, _key(seed, 1))
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


@dataclass(frozen=True, eq=False)
class HarmonicProfile:
    """Per-time estimates of E[e^{phi (t ^ tau)} h(state at t ^ tau)]."""

    t: np.ndarray
    estimates: list[Estimate]
    per_path: np.ndarray
    phi: float
    seed: int


def verify_harmonic(spec: ChainSpec, lv: LimitVector, t_grid, n_paths: int, seed: int) -> HarmonicProfile:
    """Profile of the stopped space-time mean; constant when e^{phi t} h is harmonic.

    h is the limit vector ``lv`` at its tilt phi: its values per interior
    state, and at the origin :meth:`LimitVector.origin` of the running clock,
    whose limit at the threshold is the value credited to stopped paths.
    Grid times must be nonnegative with a positive largest one.
    """
    h, phi = lv.values, lv.phi
    if h.shape != (spec.n_states,):
        raise PreconditionError("limit vector must give one value per state")
    if not np.all(h > 0.0) or not np.all(np.isfinite(h)):
        raise PreconditionError("limit vector must be positive and bounded")
    _check_paths(n_paths, 2)
    t_grid = _check_grid(t_grid)
    horizon = float(t_grid.max())
    cap = spec.theta * (1.0 - 1e-12)
    h_kill = lv.origin(cap)
    h_clock = np.vectorize(lv.origin, otypes=[float])
    per_path = np.empty((n_paths, t_grid.size))

    def observe(ids, state, t0, t1, jumped):
        for k, g in enumerate(t_grid):
            at = (t0 <= g) & (g < t1)
            held = state[at]
            val = h[held]
            origin = held == 0
            if origin.any():
                val[origin] = h_clock(np.minimum(g - t0[at][origin], cap))
            per_path[ids[at], k] = math.exp(phi * g) * val

    taus = _run(spec, AugmentedState.at_origin(0.0), horizon, n_paths, _key(seed, 0), observe=observe)
    paths, cols = np.nonzero(taus[:, None] <= t_grid[None, :])
    per_path[paths, cols] = np.exp(phi * taus[paths]) * h_kill
    ests = [_mean_estimate(per_path[:, k], seed) for k in range(len(t_grid))]
    return HarmonicProfile(t=t_grid, estimates=ests, per_path=per_path, phi=phi, seed=seed)


@dataclass(frozen=True, eq=False)
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


def _window_chunks(chain, start: AugmentedState, horizon: float, s: float, n_paths: int, key):
    """Chunks of at most ``_BATCH`` paths, in path order: their stop times, and per
    path the occupation fractions of each state on [0, s] followed by the jump
    count within it; a path that ends holds its last state."""
    n = (chain.spec if isinstance(chain, ConditionedChain) else chain).n_states
    for lo in range(0, n_paths, _BATCH):
        m = min(_BATCH, n_paths - lo)
        rows = np.zeros((m, n + 1))

        def observe(ids, state, t0, t1, jumped):
            ids = ids - lo
            rows[ids, state] += np.where(jumped, np.minimum(t1, s), s) - np.minimum(t0, s)
            rows[ids, n] += jumped & (t1 < s)

        taus = _run(chain, start, horizon, m, key, observe=observe, first=lo)
        rows[:, :n] /= s
        yield taus, rows


def rejection_window_stats(
    spec: ChainSpec,
    start: AugmentedState,
    T: float,
    s: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Window statistics of the paths from ``start`` that survive to ``T``.

    One row per accepted path, in path-index order: occupation fractions of
    each state on [0, s], then the jump count within the window.  Paths draw
    from stream 0.  The window must end by the horizon: 0 < s <= T.
    """
    if not 0.0 < s <= T:
        raise PreconditionError("window must be positive and end by the horizon")
    _check_paths(n_paths)
    _check_start(spec, start)
    chunks = _window_chunks(spec, start, T, s, n_paths, _key(seed, 0))
    return np.concatenate([rows[np.isinf(taus)] for taus, rows in chunks])


def conditioned_vs_rejection(
    spec: ChainSpec,
    cond: ConditionedChain,
    T: float,
    s: float,
    n_paths: int,
    seed: int,
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
    chunks = _window_chunks(cond, AugmentedState.at_origin(0.0), s * (1.0 + 1e-12), s, accepted, _key(seed, 1))
    con = np.concatenate([rows for _, rows in chunks])

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
    from scipy.special import chdtrc

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


@dataclass(frozen=True, eq=False)
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
    rng = _generator(seed, 2)
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
) -> np.ndarray:
    """First-passage times to the origin from an interior state, inf when censored."""
    start = AugmentedState(state)
    spec.check_start(start)
    if start.is_origin:
        raise PreconditionError(f"state {state} is not interior")
    if not horizon > 0.0:
        raise PreconditionError("horizon must be positive")
    _check_paths(n_paths)
    return _run(spec, start, horizon, n_paths, _key(seed, 0), stop="hit")

