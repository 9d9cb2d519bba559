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
``e_0 phi_k(L dt)`` come from one exponential of an augmented matrix, by
:func:`~zerohold.spectral.metzler_exp`.  A window of ``K`` cells then costs
one product with the powers of ``e^{L dt}``, an FFT convolution of the
forcing against the response rows and one product for the next window's
start state: O(n + log K) work per node for ``n`` states, after O(K n^2) for
the powers.  The forcing data are folded into arrays: the K x 4 ends ``(a_l,
a'_l, a_r, a'_r)`` of every cell come from the window's node projections
through one index array, and the Hermite weights are their product with one
constant 4 x 4 matrix.

:func:`curve_to_csv` writes each row as ``"%.10g,%.12g,%.12g" % (t, s,
scaled_s)``, byte for byte, through an array formatter that hands every
value it cannot prove to Python's own ``%``.

Every start on the augmented space is the same solve from its own ``z(0)``:
``e_i`` for an interior state, or the lumped hold whose running clock
completes it at ``theta - clock``.  :func:`solve_renewal` is the one entry,
and :func:`lift_survival` is that solve on an existing curve's grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chain import AugmentedState, ChainSpec
from .errors import NumericError, PreconditionError
from .spectral import metzler_exp

__all__ = [
    "SurvivalCurve",
    "solve_renewal",
    "lift_survival",
    "curve_to_csv",
]

# the curve and P(tau <= t) hold two floats a node
MAX_NODES = 200_000
# the powers of e^{L dt} over one holding window hold eight floats for each of
# its nodes and states: 128 MB at the cap
MAX_WINDOW = 2_000_000


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """The survival curve from ``start``, tabulated on the uniform grid ``t_k = k * dt``.

    ``cdf`` holds ``P(tau <= t_k)``, summed from positive terms; ``values``
    is ``1 - cdf`` down to one half and the surviving mass below.
    """

    dt: float
    values: np.ndarray
    start: AugmentedState
    cdf: np.ndarray | None = None

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(len(self.values))

    def at(self, times) -> np.ndarray:
        """Evaluate the curve by linear interpolation, on the grid to 1e-12 of its span."""
        times = np.asarray(times, dtype=float)
        top = self.dt * (len(self.values) - 1)
        if np.any(times < -1e-12 * top) or np.any(times > top * (1.0 + 1e-12)):
            raise PreconditionError("requested times fall outside the solved grid")
        return np.interp(np.clip(times, 0.0, top), self.t, self.values)


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


# rates too far apart for dt overflow; the finiteness check at the end reports it
@np.errstate(over="ignore", invalid="ignore")
def _delay_solve(spec: ChainSpec, dt: float, n_cells: int, start: AugmentedState) -> SurvivalCurve:
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
    spec.check_start(start)
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
    big = metzler_exp(aug)
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
    # the cubic Hermite interpolant p of a cell's ends (a_l, a'_l, a_r, a'_r) on a
    # cell of width dt, as the weights w = ends @ herm that give
    # int_0^dt p(v) e^{M (dt - v)} dv = sum_k w_k phi_k(M dt), k = 1..4, for any M
    herm = np.array([[dt, 0.0, -6.0 * dt, 12.0 * dt],
                     [0.0, dt * dt, -4.0 * dt * dt, 6.0 * dt * dt],
                     [0.0, 0.0, 6.0 * dt, -12.0 * dt],
                     [0.0, 0.0, -2.0 * dt * dt, 6.0 * dt * dt]])
    shift = np.zeros((4, 4))  # moves each a into its a' column
    shift[[0, 2], [1, 3]] = 1.0
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
            jump = _powers(e, metzler_exp(gen * (k * dt - w))[0], cells - k)
        x[k:] -= c0 * (jump @ right)
        z -= c0 * jump[-1]
        cdf[k : cells + 1] = c0
    # the first window is exact: nothing completes but the starting hold
    mass[: cells + 1] = 1.0
    if start.is_origin:
        mass[k : cells + 1] = -math.expm1(-q0 * w)
    # per cell (a_l, a'_l, a_r, a'_r): node i's a and a' at the cell's left end, node i + 1's at its right
    cell = 3 * np.arange(cells)[:, None] + [0, 2, 3, 5]
    ends = x.ravel()[cell]
    if on_node:  # the left limit at the node still holds the mass
        ends[k - 1, 2:] += c0 * right[0, ::2]
    for m in range(1, n_win if c else 1):
        # completions: c a(t - theta) from the window before, scaled to empty H of its clocks
        coef = ends @ herm
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
        ends = x.ravel()[cell] - ends @ (rate * q00 * shift)
    if not c:  # e^{-q0 theta} underflows: no fresh clock ever completes
        mass[cells + 1 :], cdf[cells + 1 :] = mass[cells], cdf[cells]
    mass, cdf = mass[: n_cells + 1], cdf[: n_cells + 1]
    values = np.where(cdf <= 0.5, 1.0 - cdf, mass)
    if not np.all(np.isfinite(values)):
        raise NumericError("the survival curve overflowed: the rates are too far apart for this dt")
    return SurvivalCurve(dt=dt, values=values, start=start, cdf=cdf)


def solve_renewal(spec: ChainSpec, t_max: float, dt: float,
                  start: AugmentedState = AugmentedState.at_origin(0.0)) -> SurvivalCurve:
    """Survival curve from ``start``, a fresh origin visit by default, by the delay form of the hold.

    An interior start begins from ``z(0) = e_i``; an origin start with a
    running clock completes its hold at ``theta - clock``, on a node or
    between nodes.  ``dt`` must divide the holding window evenly and be no
    coarser than a fiftieth of it, and the grid must reach past the window
    and hold at most ``MAX_NODES`` nodes, and one window at most
    ``MAX_WINDOW`` node-states; then the start must lie in the chain, with
    its clock below the window.  Violations raise :class:`PreconditionError`.
    The value at the window carries the right limit of the jump there.
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
    return _delay_solve(spec, dt, n_cells, start)


def lift_survival(spec: ChainSpec, base: SurvivalCurve, start: AugmentedState) -> SurvivalCurve:
    """Survival curve from ``start`` on the grid of a fresh-origin curve ``base``.

    This is the solve of :func:`solve_renewal` from ``start``, run on
    ``base``'s nodes as they are rather than on a grid rebuilt from
    ``t_max``; only that grid is read.
    """
    if base.start.state != 0 or base.start.clock != 0.0:
        raise PreconditionError("base curve must start at the origin with a fresh clock")
    return _delay_solve(spec, base.dt, len(base.values) - 1, start)


# rows per formatting chunk: each chunk's temporaries stay below a few MB
_CSV_CHUNK = 4096


@functools.cache
def _digit_tables() -> tuple:
    """Tables for :func:`_format_g`, made on first use: the ASCII of ``0000`` .. ``9999``,
    one ``uint32`` word each, and the doubles 10^0..10^22, which are exact."""
    ascii_digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    words = ascii_digits.astype(np.uint8).view(np.uint32).ravel()
    pow10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
    words.setflags(write=False)
    pow10.setflags(write=False)
    return words, pow10


def _format_g(values: np.ndarray, digits: int) -> np.ndarray:
    """``'%.{digits}g' % v`` for every double ``v`` in ``values``, for ``digits`` in 1..12.

    The result is a (digits + 10, n) ``uint8`` block whose column ``k`` holds
    the ASCII of ``values[k]`` with zero bytes, anywhere, to drop.  A positive
    ``v`` in (1e-290, 1e290) is scaled to ``y = v 10^(digits - 1 - e)`` in
    [10^(digits-1), 10^digits) by exact powers of ten, one rounding a step of
    up to 22 decades, and rounded to the integer mantissa.  A ``y`` whose
    fraction lies within that rounding bound of one half, where the nearest
    mantissa is not proven, is formatted by Python's ``%``, as are zeros,
    negatives, NaN, infinities and values past the range.  The layout is
    ``%g``'s: scientific where the rounded exponent is below -4 or at least
    ``digits``, fixed otherwise, with trailing zeros and a trailing point
    stripped.  A column holds the fixed form's four leading zeros and the
    mantissa's digits, with the point after the ``(4 + e)``-th of them or
    after the first digit, then ``e``, the sign and three exponent digits.
    Masks are viewed as ``uint8`` and blended by arithmetic, which numpy runs
    several times faster than ``where`` on bytes.
    """
    words, pow10 = _digit_tables()
    v = np.asarray(values, dtype=float)
    n = v.size
    fast = (v > 1e-290) & (v < 1e290)
    y = np.where(fast, v, 1.0)
    e = np.floor(np.log10(y)).astype(np.int64)
    # y = v 10^p by steps of at most 22 decades, each one rounding between v and y
    steps = 0
    for left, scale in ((np.maximum(digits - 1 - e, 0), np.multiply), (np.maximum(e + 1 - digits, 0), np.divide)):
        while left.any():
            step = np.minimum(left, 22)
            scale(y, pow10[step], out=y)
            left -= step
            steps += 1
    # log10 can land one decade off next to a power of ten: one more rounding
    low, high = y < 10.0 ** (digits - 1), y >= 10.0**digits
    if low.any() or high.any():
        y = np.where(low, y * 10.0, np.where(high, y / 10.0, y))
        e += high.astype(np.int64) - low
        steps += 1
    whole = np.floor(y)
    frac = y - whole
    fast &= np.abs(frac - 0.5) > steps * 2.0**-52 * y
    mant = whole.astype(np.int64) + (frac > 0.5)
    carry = mant == 10**digits
    mant[carry] = 10 ** (digits - 1)
    e += carry

    # "0000" and the mantissa's 12 digits, from three groups of four; the
    # view from row 12 - digits on starts with four zeros and its own digits
    groups = np.empty((3, n), np.int64)
    np.divmod(mant, 10**8, out=(groups[0], groups[1]))
    np.divmod(groups[1], 10**4, out=(groups[1], groups[2]))
    full = np.empty((17, n), np.uint8)
    full[:4] = ord("0")
    full[4:16].reshape(3, 4, n)[:] = words[groups].view(np.uint8).reshape(3, n, 4).transpose(0, 2, 1)
    full[16] = 0
    body = full[12 - digits :]
    sig = (body[4:-1] != ord("0")).view(np.uint8) * np.arange(1, digits + 1, dtype=np.uint8)[:, None]
    nd = sig.max(axis=0).astype(np.int8)  # significant digits left once trailing zeros go
    # the scientific mantissa is laid out as the fixed form of exponent 0
    sci = (e < -4) | (e >= digits)
    ef = np.where(sci, 0, e).astype(np.int8)
    # keep rows lo..hi-1 of body: a fixed form's leading zeros, the
    # significant digits, and the digits left of a fixed form's point
    lo, hi = 4 + np.minimum(ef, 0), 4 + np.maximum(nd, ef + 1)
    r = np.arange(digits + 5, dtype=np.int8)[:, None]
    body *= ((r >= lo) & (r < hi)).view(np.uint8)
    # the point follows row ``point`` of body: rows past it move down one
    point = 4 + ef
    block = np.zeros((digits + 10, n), np.uint8)
    block[0] = body[0]
    shifted = block[1 : digits + 5]
    np.bitwise_xor(body[1:], body[:-1], out=shifted)
    shifted *= (r[1:] <= point).view(np.uint8)
    shifted ^= body[:-1]
    dot = (hi > point + 1).view(np.uint8) * np.uint8(ord("."))  # or 0 where nothing follows
    block.reshape(-1)[(point + 1).astype(np.intp) * n + np.arange(n)] = dot
    if sci.any():
        mag = np.minimum(np.abs(e), 999)
        on = sci.view(np.uint8)
        block[digits + 5] = on * np.uint8(ord("e"))
        block[digits + 6] = on * ((e < 0).view(np.uint8) * np.uint8(2) + np.uint8(ord("+")))  # '-' is '+' + 2
        block[digits + 7 :] = words[mag].view(np.uint8).reshape(n, 4)[:, 1:].T * on
        block[digits + 7] *= (mag >= 100).view(np.uint8)
    for k in np.flatnonzero(~fast):
        text = ("%.*g" % (digits, float(v[k]))).encode("ascii")
        block[:, k] = 0
        block[: len(text), k] = np.frombuffer(text, np.uint8)
    return block


def curve_to_csv(curve: SurvivalCurve, phi: float | None = None) -> str:
    """Render a curve as CSV with columns ``t,s,scaled_s``.

    With ``phi`` given, ``scaled_s`` carries ``exp(phi t) s(t)``, formed as
    ``exp(phi t + log s)`` so it stays finite where either factor alone
    overflows or underflows, and 0 where ``s`` is; a decay rate can then be
    read off as a plateau.  Otherwise it repeats ``s``.  The rows are
    ``"%.10g,%.12g,%.12g" % (t, s, scaled_s)`` byte for byte.
    """
    t, s = curve.t, curve.values
    scaled = s
    if phi is not None:
        scaled = np.zeros_like(s)
        live = s > 0.0
        scaled[live] = np.exp(phi * t[live] + np.log(s[live]))
    parts = ["t,s,scaled_s\n"]
    for lo in range(0, len(s), _CSV_CHUNK):
        hi = min(lo + _CSV_CHUNK, len(s))
        comma = np.full((1, hi - lo), ord(","), np.uint8)
        block = np.concatenate([_format_g(t[lo:hi], 10), comma, _format_g(s[lo:hi], 12), comma,
                                _format_g(scaled[lo:hi], 12), np.full_like(comma, ord("\n"))])
        rows = block[block.any(axis=1)].T.ravel()
        parts.append(rows.compress(rows != 0).tobytes().decode("ascii"))
    return "".join(parts)
