"""Return-cycle transform, its root phi, and the limit vectors.

One full cycle at the origin consists of a holding spell shorter than the
threshold followed by an excursion back.  Its exponential transform
factorizes:

    I(lam) = J(theta) * sum_j q_{0,j} F_j(lam),
    J(x)   = integral_0^x exp((lam - q0) v) dv,

where F_j are the hitting moments (F identically 1 for a direct return).  The
geometric decay rate phi of the survival probability solves I(phi) = 1 and the
front constant is kappa = exp((phi - q0) theta) / (phi * I'(phi)).  Transient
chains skip phi entirely; their limit vector comes from the never-return
probabilities alone.

I is increasing and convex, and I(0) = 1 - exp(-q0 theta) exactly on a
recurrent spec, so phi comes from one safeguarded Newton loop that starts
from that deficit, steps by a pole model where Newton would cross the
killed decay rate, and stops at a bracket width relative to phi or a
Newton correction at rounding level (see :func:`solve_phi`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import IterationError, NumericError, PreconditionError
from .hitting import HittingAnalysis, MgfValue, analyze_hitting, hitting_mgf

__all__ = [
    "LimitVector",
    "PhiSolution",
    "limit_vector_recurrent",
    "limit_vector_transient",
    "return_mgf",
    "solve_phi",
]

_SERIES_SWITCH = 1e-8
# width of the phi bracket, relative to its upper end, at which solve_phi stops
PHI_RTOL = 1e-12
# Newton steps from above converge quadratically and a safeguard step halves the
# bracket; the slowest case, a no-root trap halving onto the pole to PHI_RTOL,
# takes about 41 steps
_PHI_MAX_ITER = 100


def _j_integral(x: float, a: float) -> float:
    """integral_0^x exp(a v) dv, stable through the removable singularity a = 0."""
    ax = a * x
    if abs(ax) < _SERIES_SWITCH:
        return x * (1.0 + ax / 2.0 + ax * ax / 6.0)
    try:
        return math.expm1(ax) / a
    except OverflowError:
        raise NumericError(f"return-cycle transform overflows at exp({ax:.6g})") from None


def _j_integral_da(x: float, a: float) -> float:
    """d/da of the integral above: integral_0^x v exp(a v) dv.

    The closed form loses about eps / (a x)^2 of relative accuracy to
    cancellation, so below |a x| = 1/2 the series x^2 sum_k (a x)^k / (k! (k + 2))
    takes over; its terms fall below eps of the sum by k = 16.
    """
    y = a * x
    if abs(y) < 0.5:
        total, term = 0.5, 1.0
        for k in range(1, 17):
            term *= y / k
            total += term / (k + 2)
        return x * x * total
    try:
        e = math.exp(y)
    except OverflowError:
        raise NumericError(f"return-cycle transform overflows at exp({y:.6g})") from None
    return (y * e - e + 1.0) / (a * a)


def _hold_profile(theta: float, a: float, u: float) -> float:
    """J(theta - u) / J(theta) at clock rate a, for a clock u the caller checked.

    An origin visit whose exit clock has density proportional to exp(a v)
    is at clock u still to exit before the threshold with this chance
    relative to a fresh clock: the origin value of every h-transform whose
    visits are not killed at the threshold, and of both limit vectors.
    """
    return _j_integral(theta - u, a) / _j_integral(theta, a)


@dataclass(frozen=True, eq=False)
class ReturnMgf:
    """Value and derivative of the return-cycle transform at one argument.

    ``mgf`` holds the hitting moments F(lam) it was built from.
    """

    lam: float
    value: float
    derivative: float
    finite: bool
    mgf: MgfValue


def return_mgf(spec: ChainSpec, lam: float) -> ReturnMgf:
    """Evaluate I(lam) and I'(lam); ``finite=False`` past the hitting abscissa."""
    return _cycle_transform(spec, hitting_mgf(spec, lam))


def _cycle_transform(spec: ChainSpec, mgf: MgfValue) -> ReturnMgf:
    """I and I' at ``mgf.lam``, from the hitting moments there."""
    lam = mgf.lam
    if not mgf.finite:
        return ReturnMgf(lam=lam, value=math.inf, derivative=math.inf, finite=False, mgf=mgf)
    q0 = spec.q0
    theta = spec.theta
    a = lam - q0
    weights = spec.rates[0]
    # an overflowing slope is the "derivative-infinite" regime of solve_phi;
    # an overflowing value is no transform value at all
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(weights[0]) + float(weights[1:] @ mgf.values[1:])
        sprime = float(weights[1:] @ mgf.derivs[1:])
    if not math.isfinite(s):
        raise NumericError(f"return-cycle transform overflows at lam = {lam:.6g}")
    j = _j_integral(theta, a)
    jprime = _j_integral_da(theta, a)
    return ReturnMgf(
        lam=lam,
        value=j * s,
        derivative=jprime * s + j * sprime,
        finite=True,
        mgf=mgf,
    )


@dataclass(frozen=True, eq=False)
class PhiSolution:
    """Root of I(phi) = 1 and the decay constant built from it.

    ``regime`` is one of ``"alpha-positive"`` (root found), ``"no-root"``
    (the transform stays below one up to ``PHI_RTOL`` of the killed decay
    rate) and ``"derivative-infinite"`` (a root exists but its slope
    overflowed).  ``phi`` and ``kappa`` are ``nan`` when not applicable;
    ``bracket`` is the last ``[lower, upper]`` around the root.  ``root`` is
    the return transform at ``phi``, with the hitting moments F(phi) of the
    limit vector, its slope I'(phi) and its residual ``|value - 1|``; it is
    ``None`` without a root.
    """

    phi: float
    kappa: float
    regime: str
    bracket: tuple
    root: ReturnMgf | None


def solve_phi(spec: ChainSpec, *, ha: HittingAnalysis | None = None) -> PhiSolution:
    """Locate the geometric decay rate phi of the origin survival probability.

    One safeguarded Newton loop on ``I - 1`` over ``[0, alpha]``, with
    ``alpha`` the killed decay rate.  ``I`` is a moment generating function,
    increasing and convex below ``alpha``, so a Newton step from below the
    root lands at or above it and the steps from above descend onto it.  The
    loop starts at ``lam = 0`` from the exact deficit ``I(0) - 1 =
    -exp(-q0 theta)`` of a recurrent spec: the first step ``exp(-q0 theta) /
    I'(0)`` carries no cancellation, even for a phi far below one ulp of
    ``I``.  The bracket's lower end is the last point below the root or, once
    a finite point above it is known, the chord root between the two, which
    convexity keeps below phi.  A step from below that leaves the bracket
    while no finite point above the root is known goes to the root of the
    pole model ``a + b / (hi - lam)`` matched to ``I`` and ``I'``, with ``hi``
    the bracket's upper end, ``alpha`` at first: ``hi - I' g^2 / (1 - I + I'
    g)`` with ``g = hi - lam``, strictly inside the bracket since ``I < 1``
    and ``I' > 0`` (the rational step of secular equations, Bunch, Nielsen &
    Sorensen, Numer. Math. 31 (1978) 31-48).  Any other step that leaves the
    bracket is replaced by its midpoint, or by a doubling while ``alpha`` is
    infinite; an infinite transform counts as above the root.  The bracket's
    top starts no higher than ``q0 + 709 / theta``, where ``J`` is still a
    double and ``I >= J q0`` is above one whenever ``q0 theta > 1e-305``.
    Where ``I > 2`` the step is Newton's on ``log I`` instead, convex too
    since ``I`` is log-convex: from far above the root, where ``I`` grows
    like ``exp(lam theta)``, a step on ``I`` would move by about ``1 /
    theta``.

    The loop stops once the bracket is no wider than ``PHI_RTOL`` relative to
    its upper end, once ``|I - 1| <= 4 eps`` at the last point, or once the
    Newton correction from a point below the root is at most ``4 eps lam``:
    by convexity that step bounds phi from above, so the root is bracketed
    to rounding.  A bracket that closes on the pole without any finite point
    at or above one gives ``"no-root"``, so a root within ``PHI_RTOL`` of
    ``alpha`` counts as none.  phi is the evaluated point of least ``|I -
    1|``, on either side of the root; where the chord closed the bracket
    before that point's Newton correction fell to rounding level, one Newton
    step from it that stays in the bracket polishes phi.  Near one, ``I - 1``
    is known only to a few eps absolutely, so phi carries a relative error
    up to about ``eps / (phi I'(phi))``.

    Requires a recurrent spec.  ``exp(-q0 theta)`` below the normal double
    range raises :class:`NumericError`, since the first step is then lost.
    ``ha`` reuses an analysis of ``spec``, its factors of M(0) included.
    """
    if ha is None:
        ha = analyze_hitting(spec)
    if ha.transient:
        raise PreconditionError("solve_phi needs a recurrent spec; this one has escape mass")
    theta = spec.theta
    q0 = spec.q0
    deficit = math.exp(-q0 * theta)
    if deficit < np.finfo(float).tiny:
        raise NumericError(f"exp(-q0 theta) = exp({-q0 * theta:.6g}) underflows; phi cannot be resolved")
    stop = 4.0 * np.finfo(float).eps
    lam, f, r = 0.0, -deficit, _cycle_transform(spec, hitting_mgf(spec, 0.0, ha.factors))
    lo, f_lo, floor = 0.0, -deficit, 0.0  # last point below the root; chord bound
    hi, top = ha.alpha_C, None  # lowest point at or above the root; its transform if finite
    if q0 * theta > 1e-305:  # below that, I may still be under one at the cap
        hi = min(hi, q0 + 709.0 / theta)
    best = None  # (|I - 1|, lam, transform) of the evaluated point nearest the root
    for _ in range(_PHI_MAX_ITER):
        step = lam - (math.log(r.value) * r.value if f > 1.0 else f) / r.derivative
        if not floor < step < hi and f < 0.0 and top is None:
            g = hi - lam  # the root of a + b / (hi - x) through I and I' at lam
            step = hi - r.derivative * g * g / (r.derivative * g - f)
        if not floor < step < hi:
            step = 0.5 * (floor + hi) if math.isfinite(hi) else 2.0 * lam
        lam = step
        r = return_mgf(spec, lam)
        f = r.value - 1.0 if r.finite else math.inf
        if best is None or abs(f) < best[0]:
            best = (abs(f), lam, r)
        if f < 0.0:
            lo, f_lo, floor = lam, f, max(floor, lam)
        else:
            hi, top = lam, r if r.finite else None
        if top is not None:
            floor = max(floor, lo - f_lo * (hi - lo) / (top.value - 1.0 - f_lo))
        settled = abs(f) <= stop or 0.0 < -f / r.derivative <= stop * lam
        if settled or floor >= hi * (1.0 - PHI_RTOL):
            break
    else:
        raise IterationError(
            f"solve_phi did not close in {_PHI_MAX_ITER} steps; bracket [{floor!r}, {hi!r}]",
            residual=hi - floor,
        )
    if not settled and top is None:
        return PhiSolution(phi=math.nan, kappa=math.nan, regime="no-root", bracket=(floor, hi), root=None)
    _, lam, r = best
    if not math.isfinite(r.derivative):
        return PhiSolution(phi=lam, kappa=math.nan, regime="derivative-infinite", bracket=(floor, hi), root=r)
    step = lam + (1.0 - r.value) / r.derivative
    if not settled and abs(1.0 - r.value) > stop * max(1.0, lam * r.derivative) and floor <= step <= hi:
        # the chord closed the bracket first: one Newton step from the nearest point
        lam, r = step, return_mgf(spec, step)
    kappa = math.exp((lam - q0) * theta) / (lam * r.derivative)
    return PhiSolution(phi=lam, kappa=kappa, regime="alpha-positive", bracket=(floor, hi), root=r)


@dataclass(frozen=True, eq=False)
class LimitVector:
    """Limit occupation profile on the augmented statespace.

    ``values[i]`` is the limit weight of interior state ``i`` and ``values[0]``
    the weight of the origin with a fresh clock; :meth:`origin` scales it by
    the clock profile of :func:`_hold_profile` at the rate ``phi - q0`` of
    ``spec``.  ``phi`` records the tilt the vector belongs to (zero in the
    transient case) and ``provenance`` which construction produced it.
    """

    values: np.ndarray
    phi: float
    provenance: str
    spec: ChainSpec

    def origin(self, clock: float) -> float:
        """Limit weight of the origin state with ``clock`` time already held."""
        self.spec.check_clock(clock)
        return float(self.values[0]) * _hold_profile(self.spec.theta, self.phi - self.spec.q0, clock)


def limit_vector_recurrent(spec: ChainSpec, sol: PhiSolution) -> LimitVector:
    """Limit vector of the alpha-positive recurrent case: F_i(phi) * kappa.

    F(phi) is the one the root solve of ``sol`` evaluated.  The origin
    profile decays like the tilted clock integral, from ``kappa`` at a fresh
    clock to zero at the threshold.
    """
    if sol.regime != "alpha-positive":
        raise PreconditionError("limit_vector_recurrent needs an alpha-positive PhiSolution")
    values = sol.root.mgf.values * sol.kappa
    values[0] = sol.kappa
    return LimitVector(values=values, phi=sol.phi, provenance="recurrent", spec=spec)


def limit_vector_transient(spec: ChainSpec, ha: HittingAnalysis | None = None) -> LimitVector:
    """Limit vector of the transient case, built from never-return mass.

    With ``delta`` the exit-weighted never-return probability and ``w = 1 -
    exp(-q0 theta)`` the chance of leaving the origin before the threshold,

        p_0 = w delta / (1 - w + w delta),
        p_i = beta_i + (1 - beta_i) p_0,

    and the origin profile scales ``p_0`` by the shrinking exit window.
    """
    if ha is None:
        ha = analyze_hitting(spec)
    if not ha.delta > 0.0:
        raise PreconditionError("limit_vector_transient needs positive escape mass")
    w = -math.expm1(-spec.q0 * spec.theta)
    p0 = w * ha.delta / ((1.0 - w) + w * ha.delta)
    values = ha.beta + (1.0 - ha.beta) * p0
    values[0] = p0
    return LimitVector(values=values, phi=0.0, provenance="transient", spec=spec)
