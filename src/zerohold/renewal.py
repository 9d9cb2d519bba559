"""Grid solution of the defective renewal equation for the long-hold time.

Started from a fresh origin visit, the survival probability
``s(t) = P(no completed hold of the full window length by time t)`` obeys

    s(t) = A(t) + (g * s)(t)

where ``g`` is the defective density of the first return to a fresh origin
clock without a completed hold on the way, and ``A(t)`` collects the paths
that reach ``t`` with neither event: still sitting in the first visit, or out
on the first excursion.  The first cycle, the hold cut off at the window and
the excursion back, is one semigroup of a generator with an absorbing
renewal state (Van Loan, IEEE TAC 23:395, 1978); one exact propagator per
curve gives ``g``, ``A`` and ``int g`` on the march's grid, and the equation
is marched with an implicit trapezoid rule.

The self-jump at the origin puts a genuine atom into ``g`` at the jump time;
on the grid it is carried at half weight where the window boundary lands
exactly on a node.  Ends of the march's integral take one-sided limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .chain import AugmentedState, ChainSpec
from .errors import PreconditionError

__all__ = [
    "SurvivalCurve",
    "solve_renewal",
    "lift_survival",
    "g_density",
    "curve_to_csv",
]

_BLOCK = 64
# the march costs O(N^2) time in the node count N
MAX_NODES = 200_000


@dataclass(frozen=True)
class SurvivalCurve:
    """A survival curve tabulated on the uniform grid ``t_k = k * dt``.

    ``g`` and ``g_integral`` hold the first-renewal density and its running
    integral on the same grid; they are populated by :func:`solve_renewal`
    and left ``None`` on lifted curves.
    """

    dt: float
    values: np.ndarray
    start: AugmentedState
    g: np.ndarray | None = None
    g_integral: np.ndarray | None = None

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(len(self.values))

    def at(self, times) -> np.ndarray:
        """Evaluate the curve by linear interpolation."""
        times = np.asarray(times, dtype=float)
        top = self.dt * (len(self.values) - 1)
        if np.any(times < -1e-12) or np.any(times > top * (1.0 + 1e-12) + 1e-12):
            raise PreconditionError("requested times fall outside the solved grid")
        return np.interp(np.clip(times, 0.0, top), self.t, self.values)


def _cycle_generator(spec: ChainSpec) -> np.ndarray:
    """Generator of the first cycle: the origin's hold at index 0, the interior
    states, and an absorbing renewal state ``R`` at index ``n`` entered by every
    jump into the origin, the self-jump included.  Nothing leaks but the hold
    completing, which :func:`_first_cycle` removes by hand.
    """
    n = spec.n_states
    b = np.zeros((n + 1, n + 1))
    b[:n, 1:n] = spec.rates[:, 1:]
    b[:n, n] = spec.rates[:, 0]
    b[np.arange(n), np.arange(n)] = -spec.exit_rates
    return b


def _step(b: np.ndarray, h: float) -> np.ndarray:
    """``exp(b h)`` clipped at zero: the exact exponential of a Metzler matrix is nonnegative."""
    return np.maximum(expm(b * h), 0.0)


def _propagate(e: np.ndarray, left, right, count: int):
    """Rows ``left @ e^m @ right`` for ``m = 0..count``, and the row ``left @ e^count``.

    The first ``_BLOCK`` rows ``left @ e^m`` are built one product at a time,
    each later block by one matmul with ``e^_BLOCK``; only the projections on
    ``right`` are kept.  With ``e`` and ``left`` nonnegative every sum here
    has nonnegative terms.
    """
    rows = min(_BLOCK, count + 1)
    block = np.empty((rows, e.shape[0]))
    block[0] = left
    for j in range(1, rows):
        block[j] = block[j - 1] @ e
    leap = np.linalg.matrix_power(e, rows)
    out = np.empty((count + 1, right.shape[1]))
    for lo in range(0, count + 1, rows):
        out[lo : lo + rows] = (block @ right)[: count + 1 - lo]
        if lo + rows <= count:
            block = block @ leap
    return out, block[count - lo]


def _cut(window: float, dt: float):
    """Last node ``k`` at or before ``window``, and the offset past it (zero within 1e-9 dt)."""
    k = int(math.floor(window / dt + 1e-9))
    off = window - k * dt
    return k, (off if off > 1e-9 * dt else 0.0)


def _first_cycle(spec: ChainSpec, state: int, dt: float, n_cells: int, window: float):
    """First-cycle kernels ``(g, A, G)`` on the grid ``t_k = k dt``, ``k = 0..n_cells``.

    Propagates the row ``e_state exp(B t)`` of :func:`_cycle_generator`, less
    the hold's mass from ``window`` on.  ``g = x . [q_{.,0}; 0]`` is the renewal
    density, ``A`` the mass not yet renewed and ``G`` the renewed mass: sums of
    nonnegative terms, which keep their relative accuracy in the far tail.  A
    cutoff on a node gives ``g`` the two-sided average there and ``A`` the
    right limit; one between nodes is reached by exact partial steps.
    ``window`` must not pass the end of the grid.
    """
    b = _cycle_generator(spec)
    n = spec.n_states
    right = np.zeros((n + 1, 3))
    right[:, 0] = b[:, n]
    right[:n, 1] = 1.0
    right[n, 2] = 1.0
    e = _step(b, dt)
    x = np.zeros(n + 1)
    x[state] = 1.0
    k, off = _cut(window, dt)
    head, x = _propagate(e, x, right, k)
    if off:  # complete the hold inside its cell, then step on to the next node
        x = x @ _step(b, off)
        x[0] = 0.0
        tail, _ = _propagate(e, x @ _step(b, dt - off), right, n_cells - k - 1)
    else:
        x[0] = 0.0
        tail, _ = _propagate(e, x, right, n_cells - k)
        tail[0, 0] = 0.5 * (head[-1, 0] + tail[0, 0])
        head = head[:-1]
    return tuple(np.vstack([head, tail]).T)


def solve_renewal(spec: ChainSpec, t_max: float, dt: float) -> SurvivalCurve:
    """March the renewal equation for the fresh-origin survival curve.

    ``dt`` must divide the holding window evenly and be no coarser than a
    fiftieth of it, and the grid must reach past the window and hold at most
    ``MAX_NODES`` nodes; violations raise :class:`PreconditionError`.  The
    marched values are clamped to ``[0, 1]`` and forced monotone, which the
    exact curve satisfies.
    """
    theta = spec.wait_threshold
    q0 = float(spec.exit_rates[0])
    if dt <= 0.0:
        raise PreconditionError("dt must be positive")
    if dt > theta / 50.0 + 1e-12 * theta:
        raise PreconditionError("dt must not exceed a fiftieth of the holding window")
    if t_max < theta:
        raise PreconditionError("t_max must reach past the holding window")
    if not t_max / dt < MAX_NODES - 1:
        raise PreconditionError(f"the grid t_max/dt needs {t_max / dt + 1:.4g} nodes, above the cap of {MAX_NODES}")
    cells_theta = int(round(theta / dt))
    if abs(cells_theta * dt - theta) > 1e-9 * theta:
        raise PreconditionError("dt must divide the holding window evenly")
    n_cells = int(round(t_max / dt))
    if n_cells * dt < t_max - 1e-9 * dt:
        n_cells += 1
    g, a, big_g = _first_cycle(spec, 0, dt, n_cells, theta)
    denom = 1.0 - dt * g[0] / 2.0
    if denom <= 0.1:
        raise PreconditionError("dt too coarse for the origin self-jump rate")
    # The exact curve jumps by exp(-q0 theta) at t = theta (the first hold
    # completes with that probability).  Reported values carry the right
    # limit; inside the convolution the jump node must carry the two-sided
    # average or the trapezoid rule degrades to first order.
    jump = math.exp(-q0 * theta)
    atom = float(spec.rates[0, 0]) * jump
    s = np.zeros(n_cells + 1)
    s[0] = 1.0
    s_quad = s.copy()
    for k in range(1, n_cells + 1):
        acc = a[k] + dt * (g[1:k] @ s_quad[k - 1 : 0 : -1] + 0.5 * g[k] * s_quad[0])
        if k == cells_theta:  # ends see g(theta-) = full atom and s(theta-)
            acc += 0.5 * dt * (0.5 * atom + g[0] * jump)
        elif k == 2 * cells_theta:  # two half weights on one node double-count
            acc -= 0.25 * dt * atom * jump
        val = acc / denom
        s[k] = max(0.0, min(val, s[k - 1], 1.0))
        s_quad[k] = s[k] + (0.5 * jump if k == cells_theta else 0.0)
    return SurvivalCurve(dt=dt, values=s, start=AugmentedState.at_origin(0.0), g=g, g_integral=big_g)


def _trap_conv(density: np.ndarray, s: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid values of ``int_0^{t_k} density(v) s(t_k - v) dv``."""
    full = np.convolve(density, s)[: len(s)]
    out = dt * (full - 0.5 * density[0] * s - 0.5 * density * s[0])
    out[0] = 0.0
    return out


def lift_survival(spec: ChainSpec, base: SurvivalCurve, start: AugmentedState) -> SurvivalCurve:
    """Survival curve from an arbitrary start, riding on the fresh-origin one.

    The first cycle from the start, a hold cut short by the running clock or
    an excursion from an interior state, gives the not-yet-renewed term and
    the renewal density, which is convolved with the base curve.  The hold's
    cutoff ``theta - clock`` is taken exactly, on a node or between nodes.
    ``base`` must come from :func:`solve_renewal` on the same chain.
    """
    if base.start.state != 0 or base.start.clock != 0.0:
        raise PreconditionError("base curve must start at the origin with a fresh clock")
    theta = spec.wait_threshold
    q0 = float(spec.exit_rates[0])
    dt = base.dt
    n_cells = len(base.values) - 1
    if start.state >= spec.n_states:
        raise PreconditionError("start state outside the chain")
    window = 0.0
    if start.is_origin:
        u = float(start.clock)
        if u >= theta:
            raise PreconditionError("holding clock must sit below the window")
        if u == 0.0:
            return SurvivalCurve(dt=dt, values=base.values.copy(), start=start)
        window = theta - u
    # same jump convention as in the march: convolve against the two-sided
    # average at the base curve's theta node
    jump = math.exp(-q0 * theta)
    base_quad = base.values.copy()
    k_theta = int(round(theta / dt))
    if 0 < k_theta <= n_cells:
        base_quad[k_theta] += 0.5 * jump
    density, lead, _ = _first_cycle(spec, start.state, dt, n_cells, window)
    values = lead + _trap_conv(density, base_quad, dt)
    values[0] = 1.0
    if 0 < k_theta <= n_cells:  # the v = 0 end sees s(theta-), not the average
        values[k_theta] += 0.25 * dt * density[0] * jump
    k, off = _cut(window, dt)
    atom = float(spec.rates[0, 0]) * math.exp(-q0 * k * dt)
    if window > 0.0:
        if off:  # the self-jump covers [k dt, theta - u] of its cell, the trapezoid half of it
            values[k + 1 :] += (off - 0.5 * dt) * atom * base_quad[1 : n_cells - k + 1]
        else:  # at t = theta - u the v = t end sees the whole atom, not half
            values[k] += 0.25 * dt * atom
    values = np.minimum.accumulate(np.clip(values, 0.0, 1.0))
    return SurvivalCurve(dt=dt, values=values, start=start)


def g_density(spec: ChainSpec, t: float) -> float:
    """Pointwise first-renewal density at elapsed time ``t``, exact up to ``expm``.

    The self-jump atom uses the literal indicator here: it is present exactly
    when ``t`` is inside the holding window, with no boundary averaging.
    """
    theta = spec.wait_threshold
    if t < 0.0:
        raise PreconditionError("g_density needs t >= 0")
    b = _cycle_generator(spec)
    x = _step(b, min(t, theta))[0]
    if t >= theta:
        x[0] = 0.0
        x = x @ _step(b, t - theta)
    return float(x @ b[:, -1])


def curve_to_csv(curve: SurvivalCurve, phi: float | None = None) -> str:
    """Render a curve as CSV with columns ``t,s,scaled_s``.

    With ``phi`` given, ``scaled_s`` carries ``exp(phi t) s(t)`` so a decay
    rate can be read off as a plateau; otherwise it repeats ``s``.
    """
    t = curve.t
    scale = np.exp(phi * t) if phi is not None else np.ones_like(t)
    lines = ["t,s,scaled_s"]
    for tv, sv, cv in zip(t, curve.values, scale * curve.values):
        lines.append(f"{tv:.10g},{sv:.12g},{cv:.12g}")
    return "\n".join(lines) + "\n"
