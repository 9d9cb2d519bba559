"""Survival curves for the long-hold time from the delay form of the hold.

Lump the origin, with its holding clock below the window ``theta``, into one
state ``H``.  The row vector ``z(t)`` of masses that have not completed a hold
(``H`` first, then the interior states) moves by the chain's own generator
``L``, a self-jump keeping its mass in ``H``, and loses only the completion
flux ``f``:

    z'(t) = z(t) L - f(t) e_0,    f(t) = e^{-q0 theta} a(t - theta),

where ``a = z . q_{.,0}`` is the flux of fresh clocks, self-jumps included,
and the starting hold adds a point mass at its own completion time.  The
survival probability is ``s = z . 1``; its complement ``F``, the integral of
``f``, is a sum of positive terms.  Curves report ``1 - F`` where ``F`` is at
most one half and ``z . 1`` below, so both ends keep their relative accuracy.

This is a linear delay equation with one delay and a rank-one delay term,
solved by the method of steps (Bellen & Zennaro, *Numerical Methods for
Delay Differential Equations*, OUP 2003): inside one window the forcing is
known from the window before.  Each grid cell is an exponential integrator
(Hochbruck & Ostermann, Acta Numerica 19:209, 2010) against the cubic Hermite
interpolant of the forcing, with ``a' = (z L) . q_{.,0} - f q_00`` from the
same state, so the scheme is fourth order; the first window, where only the
starting hold completes, is exact.  ``e^{L dt}`` and the weights
``e_0 phi_k(L dt)`` come from one augmented ``expm``.  A window of ``K``
cells then costs one product with the powers of ``e^{L dt}``, an FFT
convolution of the forcing against the response rows and one product for the
next window's start state: O(n + log K) work per node for ``n`` states, after
O(K n^2) for the powers.

The first cycle, the hold cut off at the window and the excursion back, is
one semigroup of a generator with an absorbing renewal state (Van Loan,
IEEE TAC 23:395, 1978); it gives the first-renewal density ``g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .chain import AugmentedState, ChainSpec
from .errors import NumericError, PreconditionError

__all__ = [
    "SurvivalCurve",
    "solve_renewal",
    "lift_survival",
    "g_density",
    "curve_to_csv",
]

# the curve and P(tau <= t) hold two floats a node
MAX_NODES = 200_000
# the powers of e^{L dt} over one holding window hold eight floats for each of
# its nodes and states: 128 MB at the cap
MAX_WINDOW = 2_000_000


@dataclass(frozen=True)
class SurvivalCurve:
    """A survival curve tabulated on the uniform grid ``t_k = k * dt``.

    ``cdf`` holds ``P(tau <= t_k)``, summed from positive terms; ``values``
    is ``1 - cdf`` down to one half and the surviving mass below.  ``g`` and
    ``g_integral`` are the first-renewal density and its running integral on
    the same grid, built on first use for a curve of :func:`solve_renewal`
    and ``None`` on lifted curves.
    """

    dt: float
    values: np.ndarray
    start: AugmentedState
    cdf: np.ndarray | None = None
    spec: ChainSpec | None = field(default=None, repr=False, compare=False)

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

    @cached_property
    def _kernels(self):
        if self.spec is None:
            return None, None, None
        return _first_cycle(self.spec, 0, self.dt, len(self.values) - 1, self.spec.wait_threshold)

    @property
    def g(self) -> np.ndarray | None:
        return self._kernels[0]

    @property
    def g_integral(self) -> np.ndarray | None:
        return self._kernels[2]


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


def _powers(e: np.ndarray, left: np.ndarray, count: int) -> np.ndarray:
    """``left @ e^m`` for ``m = 0..count``, stacked on a new first axis, by doubling.

    With ``e`` and ``left`` nonnegative every sum here has nonnegative terms.
    """
    out = np.empty((count + 1,) + left.shape)
    out[0] = left
    done, leap = 1, e
    while done <= count:
        take = min(done, count + 1 - done)
        out[done : done + take] = out[:take] @ leap
        done += take
        if done <= count:
            leap = leap @ leap
    return out


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
    rows = _powers(e, x, k)
    head, x = rows @ right, rows[-1].copy()
    if off:  # complete the hold inside its cell, then step on to the next node
        x = x @ _step(b, off)
        x[0] = 0.0
        tail = _powers(e, x @ _step(b, dt - off), n_cells - k - 1) @ right
    else:
        x[0] = 0.0
        tail = _powers(e, x, n_cells - k) @ right
        tail[0, 0] = 0.5 * (head[-1, 0] + tail[0, 0])
        head = head[:-1]
    return tuple(np.vstack([head, tail]).T)


def _hermite(left, right, d_left, d_right, h: float) -> np.ndarray:
    """Coefficients ``w`` of the cubic Hermite interpolant on each cell of width ``h``.

    From values and slopes at both ends of a cell, ``w`` gives
    ``int_0^h p(v) e^{M (h - v)} dv = sum_k w_k phi_k(M h)``, ``k = 1..4``,
    for any matrix ``M``; ``sum_k w_k / k!`` is the plain integral.
    """
    out = np.empty((len(left), 4))
    out[:, 0] = h * left
    out[:, 1] = h * h * d_left
    out[:, 2] = 6.0 * h * (right - left) - h * h * (4.0 * d_left + 2.0 * d_right)
    out[:, 3] = 12.0 * h * (left - right) + 6.0 * h * h * (d_left + d_right)
    return out


# rates too far apart for dt overflow; the finiteness check at the end reports it
@np.errstate(over="ignore", invalid="ignore")
def _delay_solve(spec: ChainSpec, dt: float, n_cells: int, start: AugmentedState):
    """Survival curve and ``P(tau <= t)`` from ``start`` on ``t_k = k dt``, ``k = 0..n_cells``.

    Windows ``[m theta, (m + 1) theta]`` of ``K = theta / dt`` cells are solved
    one at a time.  Each keeps the node projections of ``z`` on
    ``[q_{.,0}, 1, L q_{.,0}]``; ``a`` and ``a'`` at both ends of every cell,
    one-sided where they jump, are the next window's forcing data.  An origin
    start completes its hold with mass ``e^{-q0 w}`` at ``w = theta - clock``,
    an exact subtraction from ``H`` at a node or after an exact partial step.

    The delay equation also carries a spurious mode: mass in ``H`` with no
    clock, which leaves at rate ``q0`` and never completes.  Once rounding or
    the interpolation of ``a`` excites it, it swamps every curve that decays
    faster than ``e^{-q0 t}``.  So each window's completions are scaled to
    take exactly the mass ``H`` holds at the window's start, which the clocks
    started in the window before must complete or leave with by its end: a
    factor ``1 + O(dt^4)``, which keeps the mass balance ``s + F = 1`` exact.
    """
    theta = spec.wait_threshold
    n = spec.n_states
    q0 = float(spec.exit_rates[0])
    gen = spec.rates - np.diag(spec.exit_rates)
    back = spec.rates[:, 0]
    q00 = back[0]
    right = np.column_stack([back, np.ones(n), gen @ back])
    cells = int(round(theta / dt))
    # exp of [[diag(dt L^T, -q0 dt), e_0 + e_n, 0], [0, J]] with J the 4x4 shift:
    # e^{dt L^T} in the top-left block, then phi_1..phi_4 of both diagonal
    # blocks applied to [e_0; 1] (Sidje, ACM TOMS 24:130, 1998)
    aug = np.zeros((n + 5, n + 5))
    aug[:n, :n] = dt * gen.T
    aug[n, n] = -q0 * dt
    aug[[0, n], n + 1] = 1.0
    aug[np.arange(n + 1, n + 4), np.arange(n + 2, n + 5)] = 1.0
    big = _step(aug, 1.0)
    e = big[:n, :n].T.copy()
    hold = big[n, n + 1 :]  # phi_k(-q0 dt): one clock's survival over a cell
    left = np.zeros((5, n))
    left[0, 0] = 1.0
    left[1:] = big[:n, n + 1 :].T
    resp = _powers(e, left, cells)  # e_0 phi_k(L dt) e^{m L dt}, k = 0..4 with phi_0 = 1
    forced = resp[:cells, 1:].reshape(4 * cells, n)
    spectrum = np.fft.rfft(resp[:cells, 1:] @ right, 2 * cells, axis=0)
    hom = _powers(e.T, right.T, cells).reshape(-1, n)  # rows (e^{m L dt} right)^T
    leap = np.linalg.matrix_power(e, cells)
    unit = np.array([1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0])  # phi_k(0)
    c = math.exp(-q0 * theta)
    age = np.exp(q0 * dt * np.arange(1, cells + 1) - q0 * theta)  # a cell's clocks surviving to the window's end

    z = np.zeros(n)
    z[start.state] = 1.0
    n_win = -(-n_cells // cells)
    mass = np.empty(n_win * cells + 1)
    cdf = np.zeros(n_win * cells + 1)
    x = (hom @ z).reshape(cells + 1, 3)
    z = z @ leap
    on_node = False
    if start.is_origin:
        w = theta - start.clock
        c0 = math.exp(-q0 * w)
        k, off = _cut(w, dt)
        on_node = k > 0 and not off
        if on_node:
            jump = resp[: cells - k + 1, 0]
        else:  # step exactly to the completion, then on to the next node
            k += 1
            jump = _powers(e, _step(gen, k * dt - w)[0], cells - k)
        x[k:] -= c0 * (jump @ right)
        z -= c0 * jump[-1]
        cdf[k : cells + 1] = c0
    # the first window is exact: nothing completes but the starting hold
    mass[: cells + 1] = 1.0
    if start.is_origin:
        mass[k : cells + 1] = -math.expm1(-q0 * w)
    a_l, a_r, d_l, d_r = x[:-1, 0], x[1:, 0].copy(), x[:-1, 2], x[1:, 2].copy()
    if on_node:  # the left limit at the node still holds the mass
        a_r[k - 1] += c0 * right[0, 0]
        d_r[k - 1] += c0 * right[0, 2]
    for m in range(1, n_win if c else 1):
        # completions: c a(t - theta) from the window before, scaled to empty H of its clocks
        coef = _hermite(a_l, a_r, d_l, d_r, dt)
        held = age @ (coef @ hold)
        rate = c * max(z[0], 0.0) / held if held > 0.0 else 0.0
        coef *= rate
        x = (hom @ z).reshape(cells + 1, 3)
        x[1:] -= np.fft.irfft(np.einsum("fk,fkp->fp", np.fft.rfft(coef, 2 * cells, axis=0), spectrum),
                              2 * cells, axis=0)[:cells]
        z = z @ leap - coef[::-1].ravel() @ forced
        lo = m * cells
        mass[lo + 1 : lo + cells + 1] = x[1:, 1]
        cdf[lo + 1 : lo + cells + 1] = cdf[lo] + np.cumsum(coef @ unit)
        # a' = (z L) q_{.,0} - f q_00, with this window's completions f = rate a(t - theta)
        d_l, d_r = x[:-1, 2] - rate * q00 * a_l, x[1:, 2] - rate * q00 * a_r
        a_l, a_r = x[:-1, 0], x[1:, 0]
    if not c:  # e^{-q0 theta} underflows: no fresh clock ever completes
        mass[cells + 1 :], cdf[cells + 1 :] = mass[cells], cdf[cells]
    mass, cdf = mass[: n_cells + 1], cdf[: n_cells + 1]
    values = np.where(cdf <= 0.5, 1.0 - cdf, mass)
    if not np.all(np.isfinite(values)):
        raise NumericError("the survival curve overflowed: the rates are too far apart for this dt")
    return values, cdf


def solve_renewal(spec: ChainSpec, t_max: float, dt: float) -> SurvivalCurve:
    """Survival curve from a fresh origin visit, by the delay form of the hold.

    ``dt`` must divide the holding window evenly and be no coarser than a
    fiftieth of it, and the grid must reach past the window and hold at most
    ``MAX_NODES`` nodes, and one window at most ``MAX_WINDOW`` node-states;
    violations raise :class:`PreconditionError`.  The value at the window
    carries the right limit of the jump there.
    """
    theta = spec.wait_threshold
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
    if (cells_theta + 1) * spec.n_states > MAX_WINDOW:
        raise PreconditionError(f"a holding window of {cells_theta + 1} nodes on {spec.n_states} states "
                                f"is above the cap of {MAX_WINDOW} node-states")
    n_cells = int(round(t_max / dt))
    if n_cells * dt < t_max - 1e-9 * dt:
        n_cells += 1
    start = AugmentedState.at_origin(0.0)
    values, cdf = _delay_solve(spec, dt, n_cells, start)
    return SurvivalCurve(dt=dt, values=values, start=start, cdf=cdf, spec=spec)


def lift_survival(spec: ChainSpec, base: SurvivalCurve, start: AugmentedState) -> SurvivalCurve:
    """Survival curve from an arbitrary start, on the grid of a fresh-origin curve.

    The same delay solve runs from ``z(0) = e_i`` for an interior start, or
    from a hold whose running clock completes it at ``theta - clock``, on a
    node or between nodes.  ``base`` must come from :func:`solve_renewal` on
    the same chain; only its grid is used.
    """
    if base.start.state != 0 or base.start.clock != 0.0:
        raise PreconditionError("base curve must start at the origin with a fresh clock")
    if start.state >= spec.n_states:
        raise PreconditionError("start state outside the chain")
    if start.is_origin and start.clock >= spec.wait_threshold:
        raise PreconditionError("holding clock must sit below the window")
    values, cdf = _delay_solve(spec, base.dt, len(base.values) - 1, start)
    return SurvivalCurve(dt=base.dt, values=values, start=start, cdf=cdf)


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

    With ``phi`` given, ``scaled_s`` carries ``exp(phi t) s(t)``, formed as
    ``exp(phi t + log s)`` so it stays finite where either factor alone
    overflows or underflows, and 0 where ``s`` is; a decay rate can then be
    read off as a plateau.  Otherwise it repeats ``s``.
    """
    t, s = curve.t, curve.values
    scaled = s
    if phi is not None:
        scaled = np.zeros_like(s)
        live = s > 0.0
        scaled[live] = np.exp(phi * t[live] + np.log(s[live]))
    body = "\n".join(map("{:.10g},{:.12g},{:.12g}".format, t.tolist(), s.tolist(), scaled.tolist()))
    return "t,s,scaled_s\n" + body + "\n"
