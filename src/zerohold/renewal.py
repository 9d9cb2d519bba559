"""Grid solution of the defective renewal equation for the long-hold time.

Started from a fresh origin visit, the survival probability
``s(t) = P(no completed hold of the full window length by time t)`` obeys

    s(t) = A(t) + (g * s)(t)

where ``g`` is the defective density of the first return to a fresh origin
clock without a completed hold on the way, and ``A(t)`` collects the paths
that reach ``t`` with neither event: still sitting in the first visit, or out
on the first excursion.  Excursion time dependence enters through the killed
semigroup: one exact propagator per curve gives every kernel on a quarter-step
grid, and the equation is marched with an implicit trapezoid rule.

The self-jump at the origin puts a genuine atom into ``g`` at the jump time;
on the grid it is carried at half weight where the window boundary lands
exactly on a node, while running integrals of ``g`` use the exact closed
form for the atom's mass.  Ends of the march's integral take one-sided limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .chain import AugmentedState, ChainSpec
from .errors import PreconditionError
from .spectral import KilledGenerator, killed_generator

__all__ = [
    "SurvivalCurve",
    "solve_renewal",
    "lift_survival",
    "g_density",
    "curve_to_csv",
]

_BLOCK = 64


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


def _simpson_weights(n_int: int, h: float) -> np.ndarray:
    """Quadrature weights for ``n_int`` uniform steps of width ``h``.

    Composite Simpson wants an even interval count; an odd count ends with a
    three-eighths cell.  A single interval falls back to the trapezoid.
    """
    w = np.zeros(n_int + 1)
    if n_int == 0:
        return w
    if n_int == 1:
        w[:] = h / 2.0
        return w
    body = n_int if n_int % 2 == 0 else n_int - 3
    if body > 0:
        w[0] += h / 3.0
        w[body] += h / 3.0
        w[1:body:2] += 4.0 * h / 3.0
        w[2:body:2] += 2.0 * h / 3.0
    if body < n_int:
        w[body : body + 4] += np.array([3.0, 9.0, 9.0, 3.0]) * (h / 8.0)
    return w


def _propagate(gen: KilledGenerator, left, right, step: float, count: int) -> np.ndarray:
    """Rows ``left @ E^m @ right`` for ``m = 0..count``, ``E = exp(Q_killed step)``.

    The first ``_BLOCK`` rows ``left @ E^m`` are built one product at a time,
    each later block by one matmul with ``E^_BLOCK``; only the projections on
    ``right`` are kept.  ``E`` is clipped at zero: the exact exponential of a
    Metzler matrix is nonnegative, so every sum here has nonnegative terms.
    """
    e = np.maximum(expm(gen.matrix * step), 0.0)
    rows = min(_BLOCK, count + 1)
    block = np.empty((rows, gen.size))
    block[0] = left
    for j in range(1, rows):
        block[j] = block[j - 1] @ e
    leap = np.linalg.matrix_power(e, rows)
    out = np.empty((count + 1, right.shape[1]))
    for lo in range(0, count + 1, rows):
        out[lo : lo + rows] = (block @ right)[: count + 1 - lo]
        block = block @ leap
    return out


def _excursion_kernels(spec: ChainSpec, step: float, count: int):
    """Return-rate and still-out kernels of the excursion semigroup.

    Entry ``m`` of the first is ``sum_j q_{0,j} (exp(m step Q_killed) q_{.,0})_j``,
    the launch rates folded against the killed-chain hitting density; entry
    ``m`` of the second folds the same launch rates against the all-ones
    survival vector, the probability an excursion is still out after
    ``m * step``.  A chain with no interior has no excursions and gets zero
    kernels.
    """
    if spec.n_states == 1:
        return np.zeros(count + 1), np.zeros(count + 1)
    gen = killed_generator(spec)
    right = np.column_stack([spec.rates[1:, 0].astype(float), np.ones(gen.size)])
    return tuple(_propagate(gen, spec.rates[0, 1:], right, step, count).T)


def _windowed_conv_q(q0: float, h4: float, nq: int, mq: int, kernel: np.ndarray) -> np.ndarray:
    """Quarter-grid values of ``int e^{-q0 v} kernel(t - v) dv`` over
    ``v in [0, min(t, mq * h4)]``; full windows in one direct convolution,
    not an FFT, whose absolute error would swamp the far tail."""
    out = np.zeros(nq + 1)
    if mq <= 0:
        return out
    decay = np.exp(-q0 * h4 * np.arange(mq + 1))
    for m in range(1, min(mq, nq + 1)):
        out[m] = (_simpson_weights(m, h4) * decay[: m + 1]) @ kernel[m::-1]
    if mq <= nq:
        out[mq:] = np.convolve(kernel, _simpson_weights(mq, h4) * decay)[mq : nq + 1]
    return out


def _grid_g(spec: ChainSpec, dt: float, n_cells: int, window_quarters: int, kernel: np.ndarray):
    """First-renewal density and integral for a window of ``window_quarters``
    quarter steps.

    Returns ``(g, big_g, gq)``: the full-grid density with the self-jump atom
    folded in, its running integral, and the continuous part on the quarter
    grid.  The atom gets half weight on the node where the window boundary
    sits; its contribution to ``big_g`` is integrated in closed form.
    """
    h4 = dt / 4.0
    nq = 4 * n_cells
    q0 = float(spec.exit_rates[0])
    self_rate = float(spec.rates[0, 0])
    mq = window_quarters
    window = mq * h4
    gq = _windowed_conv_q(q0, h4, nq, mq, kernel)
    g = gq[::4].copy()
    tk = dt * np.arange(n_cells + 1)
    big_g = np.zeros(n_cells + 1)
    if n_cells > 0:
        cell = (dt / 6.0) * (gq[:-4:4] + 4.0 * gq[2::4] + gq[4::4])
        big_g[1:] = np.cumsum(cell)
    if self_rate > 0.0 and mq > 0:
        idx4 = 4 * np.arange(n_cells + 1)
        atom = self_rate * np.exp(-q0 * tk)
        atom[idx4 > mq] = 0.0
        atom[idx4 == mq] *= 0.5
        g += atom
        big_g += (self_rate / q0) * (1.0 - np.exp(-q0 * np.minimum(tk, window)))
    return g, big_g, gq


def _still_unrenewed(q0: float, dt: float, n_cells: int, window_quarters: int, alive_kernel: np.ndarray) -> np.ndarray:
    """A(t): the first hold still running, or the first excursion still out.

    Assembled from positive pieces only.  The algebraically equivalent form
    ``I(0) - G(t)`` cancels catastrophically once the true tail decays below
    the quadrature bias of ``G``, which poisons the survival curve exactly
    where the scaled plateau is read off; this form keeps the error relative.
    """
    h4 = dt / 4.0
    mq = window_quarters
    out_q = _windowed_conv_q(q0, h4, 4 * n_cells, mq, alive_kernel)
    idx4 = 4 * np.arange(n_cells + 1)
    tk = dt * np.arange(n_cells + 1)
    hold = np.where(idx4 < mq, np.exp(-q0 * tk), 0.0)
    return hold + out_q[::4]


def solve_renewal(spec: ChainSpec, t_max: float, dt: float) -> SurvivalCurve:
    """March the renewal equation for the fresh-origin survival curve.

    ``dt`` must divide the holding window evenly and be no coarser than a
    fiftieth of it, and the grid must reach past the window; violations
    raise :class:`PreconditionError`.  The marched values are clamped to
    ``[0, 1]`` and forced monotone, which the exact curve satisfies.
    """
    theta = spec.wait_threshold
    q0 = float(spec.exit_rates[0])
    if dt <= 0.0:
        raise PreconditionError("dt must be positive")
    if dt > theta / 50.0 + 1e-12 * theta:
        raise PreconditionError("dt must not exceed a fiftieth of the holding window")
    cells_theta = int(round(theta / dt))
    if abs(cells_theta * dt - theta) > 1e-9 * theta:
        raise PreconditionError("dt must divide the holding window evenly")
    if t_max < theta:
        raise PreconditionError("t_max must reach past the holding window")
    n_cells = int(round(t_max / dt))
    if n_cells * dt < t_max - 1e-9 * dt:
        n_cells += 1
    ret_kernel, alive_kernel = _excursion_kernels(spec, dt / 4.0, 4 * n_cells)
    g, big_g, _ = _grid_g(spec, dt, n_cells, 4 * cells_theta, ret_kernel)
    a = _still_unrenewed(q0, dt, n_cells, 4 * cells_theta, alive_kernel)
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
    s_quad = np.zeros(n_cells + 1)
    s[0] = 1.0
    s_quad[0] = 1.0
    for k in range(1, n_cells + 1):
        acc = a[k] + dt * (g[1:k] @ s_quad[k - 1 : 0 : -1] + 0.5 * g[k] * s_quad[0])
        if k == cells_theta:  # ends see g(theta-) = full atom and s(theta-)
            acc += 0.5 * dt * (0.5 * atom + g[0] * jump)
        elif k == 2 * cells_theta:  # two half weights on one node double-count
            acc -= 0.25 * dt * atom * jump
        val = acc / denom
        s[k] = max(0.0, min(val, s[k - 1], 1.0))
        s_quad[k] = s[k] + (0.5 * jump if k == cells_theta else 0.0)
    return SurvivalCurve(
        dt=dt,
        values=s,
        start=AugmentedState.at_origin(0.0),
        g=g,
        g_integral=big_g,
    )


def _trap_conv(density: np.ndarray, s: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid values of ``int_0^{t_k} density(v) s(t_k - v) dv``."""
    full = np.convolve(density, s)[: len(s)]
    out = dt * (full - 0.5 * density[0] * s - 0.5 * density * s[0])
    out[0] = 0.0
    return out


def lift_survival(spec: ChainSpec, base: SurvivalCurve, start: AugmentedState) -> SurvivalCurve:
    """Survival curve from an arbitrary start, riding on the fresh-origin one.

    An interior start adds the not-yet-hit term and convolves its hitting
    density with the base curve; an origin start with a running clock gets
    the same renewal split with the first window shortened by the clock
    (snapped to the quarter grid).  ``base`` must come from
    :func:`solve_renewal` on the same chain.
    """
    if base.start.state != 0 or base.start.clock != 0.0:
        raise PreconditionError("base curve must start at the origin with a fresh clock")
    theta = spec.wait_threshold
    q0 = float(spec.exit_rates[0])
    dt = base.dt
    n_cells = len(base.values) - 1
    if start.state >= spec.n_states:
        raise PreconditionError("start state outside the chain")
    # same jump convention as in the march: convolve against the two-sided
    # average at the base curve's theta node
    jump = math.exp(-q0 * theta)
    base_quad = base.values.copy()
    k_theta = int(round(theta / dt))
    if 0 < k_theta <= n_cells:
        base_quad[k_theta] += 0.5 * jump
    if start.is_origin:
        u = float(start.clock)
        if u >= theta:
            raise PreconditionError("holding clock must sit below the window")
        if u == 0.0:
            return SurvivalCurve(dt=dt, values=base.values.copy(), start=start)
        h4 = dt / 4.0
        mq = int(round((theta - u) / h4))
        mq = max(0, min(mq, 4 * n_cells, int(round(4 * theta / dt))))
        ret_kernel, alive_kernel = _excursion_kernels(spec, h4, 4 * n_cells)
        density, _, _ = _grid_g(spec, dt, n_cells, mq, ret_kernel)
        lead = _still_unrenewed(q0, dt, n_cells, mq, alive_kernel)
        if mq > 0 and mq % 4 == 0:
            # at t = theta - u the convolution's v = t end sees the whole self-jump atom, not half
            lead[mq // 4] += 0.25 * dt * float(spec.rates[0, 0]) * math.exp(-q0 * mq * h4)
    else:
        gen = killed_generator(spec)
        e_pos = np.zeros(gen.size)
        e_pos[gen.states.index(start.state)] = 1.0
        right = np.column_stack([np.ones(gen.size), spec.rates[1:, 0].astype(float)])
        lead, density = _propagate(gen, e_pos, right, dt, n_cells).T
    values = lead + _trap_conv(density, base_quad, dt)
    values[0] = 1.0
    if 0 < k_theta <= n_cells:  # the v = 0 end sees s(theta-), not the average
        values[k_theta] += 0.25 * dt * density[0] * jump
    values = np.minimum.accumulate(np.clip(values, 0.0, 1.0))
    return SurvivalCurve(dt=dt, values=values, start=start)


def g_density(spec: ChainSpec, t: float, dt: float | None = None) -> float:
    """Pointwise first-renewal density at elapsed time ``t``.

    The self-jump atom uses the literal indicator here: it is present exactly
    when ``t`` is inside the holding window, with no boundary averaging.
    ``dt`` sets the quadrature resolution (default: a fiftieth of the
    window).
    """
    theta = spec.wait_threshold
    q0 = float(spec.exit_rates[0])
    if t < 0.0:
        raise PreconditionError("g_density needs t >= 0")
    if dt is None:
        dt = theta / 50.0
    if dt <= 0.0:
        raise PreconditionError("dt must be positive")
    atom = float(spec.rates[0, 0]) * math.exp(-q0 * t) if t < theta else 0.0
    upper = min(t, theta)
    if upper <= 0.0 or spec.n_states == 1:
        return atom
    h = dt / 4.0
    n_int = max(1, int(round(upper / h)))
    h = upper / n_int
    gen = killed_generator(spec)
    launch = spec.rates[0, 1:]
    if t > upper:  # the launch row aged by t - upper
        launch = _propagate(gen, launch, np.eye(gen.size), t - upper, 1)[1]
    by_age = _propagate(gen, launch, spec.rates[1:, :1].astype(float), h, n_int)[:, 0]
    v = h * np.arange(n_int + 1)
    integrand = np.exp(-q0 * v) * by_age[::-1]
    return float(atom + _simpson_weights(n_int, h) @ integrand)


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
