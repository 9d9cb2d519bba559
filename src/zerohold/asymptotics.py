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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ChainSpec
from .errors import IterationError, NumericError, PreconditionError
from .hitting import HittingAnalysis, analyze_hitting, hitting_mgf

__all__ = [
    "LimitVector",
    "PhiSolution",
    "limit_vector_recurrent",
    "limit_vector_transient",
    "return_mgf",
    "solve_phi",
]

_SERIES_SWITCH = 1e-8
# bisection steps: enough to halve any finite bracket below 1e-53
_PHI_MAX_ITER = 1200


def _j_integral(x: float, a: float) -> float:
    """integral_0^x exp(a v) dv, stable through the removable singularity a = 0."""
    if abs(a) < _SERIES_SWITCH:
        ax = a * x
        return x * (1.0 + ax / 2.0 + ax * ax / 6.0)
    try:
        return math.expm1(a * x) / a
    except OverflowError:
        raise NumericError(f"return-cycle transform overflows at exp({a * x:.6g})") from None


def _j_integral_da(x: float, a: float) -> float:
    """d/da of the integral above."""
    if abs(a) < _SERIES_SWITCH:
        ax = a * x
        return x * x * (0.5 + ax / 3.0 + ax * ax / 8.0)
    try:
        e = math.exp(a * x)
    except OverflowError:
        raise NumericError(f"return-cycle transform overflows at exp({a * x:.6g})") from None
    return (x * a * e - e + 1.0) / (a * a)


@dataclass(frozen=True)
class ReturnMgf:
    """Value and derivative of the return-cycle transform at one argument."""

    lam: float
    value: float
    derivative: float
    finite: bool


def return_mgf(spec: ChainSpec, lam: float) -> ReturnMgf:
    """Evaluate I(lam) and I'(lam); ``finite=False`` past the hitting abscissa."""
    mgf = hitting_mgf(spec, lam)
    if not mgf.finite:
        return ReturnMgf(lam=float(lam), value=math.inf, derivative=math.inf, finite=False)
    q0 = spec.q0
    theta = spec.theta
    a = float(lam) - q0
    weights = spec.rates[0]
    # an overflowing slope is the "derivative-infinite" regime of solve_phi;
    # an overflowing value is no transform value at all
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(weights[0]) + float(weights[1:] @ mgf.values[1:])
        sprime = float(weights[1:] @ mgf.derivs[1:])
    if not math.isfinite(s):
        raise NumericError(f"return-cycle transform overflows at lam = {float(lam):.6g}")
    j = _j_integral(theta, a)
    jprime = _j_integral_da(theta, a)
    return ReturnMgf(
        lam=float(lam),
        value=j * s,
        derivative=jprime * s + j * sprime,
        finite=True,
    )


@dataclass(frozen=True)
class PhiSolution:
    """Root of I(phi) = 1 and the decay constant built from it.

    ``regime`` is one of ``"alpha-positive"`` (root found), ``"no-root"``
    (the transform stays below one up to the killed decay rate) and
    ``"derivative-infinite"`` (a root exists but its slope overflowed).
    ``phi``, ``kappa`` and ``iprime`` are ``nan`` when not applicable.
    """

    phi: float
    kappa: float
    iprime: float
    regime: str
    bracket: tuple
    root_residual: float


def _aitken_limit(seq):
    best = seq[-1]
    for k in range(len(seq) - 2):
        x0, x1, x2 = seq[k], seq[k + 1], seq[k + 2]
        denom = (x2 - x1) - (x1 - x0)
        if denom != 0.0:
            best = x2 - (x2 - x1) ** 2 / denom
    return best


def solve_phi(spec: ChainSpec, tol: float = 1e-12, ha: HittingAnalysis | None = None) -> PhiSolution:
    """Locate the geometric decay rate phi of the origin survival probability.

    Bisection of ``I(lam) - 1`` on ``(0, alpha)`` where alpha is the killed
    decay rate; an infinite transform value counts as positive.  When the
    transform stays below one all the way up (probed on a sequence
    ``alpha * (1 - 10^-k)``, k = 6..12, with an Aitken limit guess) there is
    no root and the heavy-tail machinery applies instead.  Bisection stops
    once the bracket is no wider than ``max(tol, 4 eps hi)``, so the root is
    resolved to ``tol`` or to working precision, whichever is coarser.

    Requires a recurrent spec.  ``ha`` reuses an analysis of ``spec`` that
    the caller already holds.
    """
    if ha is None:
        ha = analyze_hitting(spec)
    if ha.transient:
        raise PreconditionError("solve_phi needs a recurrent spec; this one has escape mass")
    theta = spec.theta
    q0 = spec.q0

    def f(lam: float) -> float:
        r = return_mgf(spec, lam)
        return r.value - 1.0 if r.finite else math.inf

    alpha = ha.alpha_C
    if math.isinf(alpha):
        # no interior chain limits the transform; expand until it crosses one
        hi = max(1.0, q0)
        while f(hi) < 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise NumericError("solve_phi could not bracket a root")
        lo = 0.0
    else:
        hi = alpha * (1.0 - 1e-9)
        lo = 0.0
        if f(hi) < 0.0:
            # walk probes toward alpha; the transform is increasing in lam
            lo, hi = hi, None
            vals = []
            for k in range(6, 13):
                p = alpha * (1.0 - 10.0 ** (-k))
                if p <= lo:
                    vals.append(f(p) + 1.0)
                    continue
                fp = f(p)
                vals.append(fp + 1.0)
                if fp >= 0.0:
                    hi = p
                    break
                lo = p
            if hi is None:
                finite_vals = [v for v in vals if math.isfinite(v)]
                limit = _aitken_limit(finite_vals) if len(finite_vals) >= 3 else max(finite_vals)
                if limit < 1.0:
                    return PhiSolution(
                        phi=math.nan,
                        kappa=math.nan,
                        iprime=math.nan,
                        regime="no-root",
                        bracket=(0.0, alpha),
                        root_residual=math.nan,
                    )
                hi = alpha  # extrapolation says the root hides inside the last gap
    eps = np.finfo(float).eps
    steps = 0
    while hi - lo > max(tol, 4.0 * eps * hi):
        if steps == _PHI_MAX_ITER:
            raise IterationError(
                f"solve_phi bisection did not close in {steps} steps; bracket [{lo!r}, {hi!r}]",
                residual=hi - lo,
            )
        steps += 1
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    phi = 0.5 * (lo + hi)
    r = return_mgf(spec, phi)
    if not r.finite or not math.isfinite(r.derivative):
        return PhiSolution(
            phi=phi,
            kappa=math.nan,
            iprime=math.inf,
            regime="derivative-infinite",
            bracket=(lo, hi),
            root_residual=abs(r.value - 1.0) if r.finite else math.inf,
        )
    kappa = math.exp((phi - q0) * theta) / (phi * r.derivative)
    return PhiSolution(
        phi=phi,
        kappa=kappa,
        iprime=r.derivative,
        regime="alpha-positive",
        bracket=(lo, hi),
        root_residual=abs(r.value - 1.0),
    )


@dataclass(frozen=True)
class LimitVector:
    """Limit occupation profile on the augmented statespace.

    ``values[i]`` is the limit weight of interior state ``i`` and ``values[0]``
    the weight of the origin with a fresh clock; :meth:`origin` interpolates
    in the clock.  ``phi`` records the tilt the vector belongs to (zero in the
    transient case) and ``provenance`` which construction produced it.
    """

    values: np.ndarray
    phi: float
    provenance: str
    _origin_fn: Callable[[float], float]

    def origin(self, clock: float) -> float:
        """Limit weight of the origin state with ``clock`` time already held."""
        return self._origin_fn(clock)


def limit_vector_recurrent(spec: ChainSpec, sol: PhiSolution) -> LimitVector:
    """Limit vector of the alpha-positive recurrent case: F_i(phi) * kappa.

    The origin profile decays like the tilted clock integral, from ``kappa``
    at a fresh clock to zero at the threshold.
    """
    if sol.regime != "alpha-positive" or not math.isfinite(sol.phi):
        raise PreconditionError("limit_vector_recurrent needs an alpha-positive PhiSolution")
    mgf = hitting_mgf(spec, sol.phi)
    if not mgf.finite:
        raise PreconditionError("hitting moments blew up at phi; solution is inconsistent")
    theta = spec.theta
    a = sol.phi - spec.q0
    kappa = sol.kappa
    values = mgf.values * kappa
    values[0] = kappa
    jtheta = _j_integral(theta, a)

    def origin(u: float) -> float:
        if not 0.0 <= u < theta:
            raise PreconditionError(f"clock {u} outside [0, {theta})")
        return kappa * _j_integral(theta - u, a) / jtheta

    return LimitVector(values=values, phi=sol.phi, provenance="recurrent", _origin_fn=origin)


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
    q0 = spec.q0
    theta = spec.theta
    w = -math.expm1(-q0 * theta)
    p0 = w * ha.delta / ((1.0 - w) + w * ha.delta)
    values = ha.beta + (1.0 - ha.beta) * p0
    values[0] = p0

    def origin(u: float) -> float:
        if not 0.0 <= u < theta:
            raise PreconditionError(f"clock {u} outside [0, {theta})")
        return p0 * (-math.expm1(-q0 * (theta - u))) / w

    return LimitVector(values=values, phi=0.0, provenance="transient", _origin_fn=origin)
