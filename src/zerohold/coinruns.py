"""Run-length asymptotics for coin tossing, and the Poisson special case.

The probability of seeing no head run of length ``k`` in ``n`` tosses decays
geometrically, ``p_n ~ c_k s_k^{n+1}``, where ``s_k`` is the dominant root of
the characteristic polynomial of the run recursion and ``c_k`` the matching
residue constant.  The continuous-time analogue with unit-rate structure
replaces the polynomial by the transcendental equation ``x e^{-x} = r e^{-r}``
whose companion root plays the part of the decay rate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NumericError, PreconditionError

__all__ = [
    "CoinResult",
    "PoissonResult",
    "coin_root",
    "coin_constant",
    "coin_exact",
    "coin_result",
    "poisson_phi",
]

# (phi - 1) / u = S(u) for r = 1 + u: exact rationals from reverting
# r = t / expm1(t), since phi = r e^t.  Within |u| < _SERIES_REACH the terms
# left out are below 1e-18 relative.
_COMPANION_SERIES = (
    -1.0, 2 / 3, -4 / 9, 44 / 135, -104 / 405, 40 / 189, -7648 / 42525, 2848 / 18225,
    -31712 / 229635, 23429344 / 189448875, -89072576 / 795685275,
    1441952704 / 14105329875, -893393408 / 9499507875,
)
_SERIES_REACH = 0.05
# B_2n / (2n)!, n = 1..6: coth(x/2)/2 - 1/x = sum x^(2n-1) B_2n / (2n)!, to 1e-17 on |x| < 1/4
_COTH_SERIES = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)


@dataclass(frozen=True)
class CoinResult:
    """Answer set for one ``(p, k)`` pair.

    ``table`` rows, when built, are ``(n, exact, asymptote)`` with the
    asymptote ``c_k * s_k ** (n + 1)``, and ``rel_error`` holds ``|asymptote
    - exact| / exact`` for each row.
    """

    p: float
    k: int
    s_k: float
    c_k: float
    table: tuple | None = None
    rel_error: tuple | None = None


@dataclass(frozen=True)
class PoissonResult:
    """Decay rate and prefactor constant for the rate-``r`` special case."""

    r: float
    phi_r: float
    c_r: float


def coin_root(p: float, k: int) -> float:
    """Largest root in (0, 1) of the no-run characteristic polynomial.

    Times ``x - p``, the polynomial becomes ``x^k (1 - x) = q p^k``, whose
    left side peaks at ``k/(k+1)``; ``p`` and the dominant root ``s_k`` are
    its two solutions, one on each side of the peak.  With ``G(x) = sum_{j<k}
    x^j p^(k-1-j)``, a sum of positive terms, the polynomial itself is ``x^k =
    q G(x)`` and also ``(1 - x) G(x) = p^k``.  Bisection runs on the side of
    the peak away from ``p``, on the log of the second form above the peak
    and of the first below it, in ``y = 1 - x`` where the root lies above 1/2
    and in ``y = x`` otherwise.  Both keep ``s_k`` a simple, well-conditioned
    root, also where it meets ``p`` at the peak, and bisection to a width of
    4 eps relative to ``y`` gives ``s_k`` and ``1 - s_k`` to relative accuracy
    however close ``s_k`` is to 1.
    """
    y, flip = _coin_gap(p, k)
    return 1.0 - y if flip else y


def _coin_gap(p: float, k: int) -> tuple:
    """The bisected ``y`` of :func:`coin_root`, and whether it is ``1 - s_k`` rather than ``s_k``."""
    if not 0.0 < p < 1.0:
        raise PreconditionError("head probability must lie strictly inside (0, 1)")
    if k < 1:
        raise PreconditionError("run length must be at least 1")
    q = 1.0 - p
    if k == 1:
        # linear equation x - q = 0
        return q, False
    above = p < k / (k + 1)
    log_p = math.log(p)
    floor = math.exp(math.log(q) + k * log_p)  # q p^k, below 1 - s_k above the peak and s_k below it
    if above:
        flip, lo, hi = True, floor, 1.0 / (k + 1)
        if lo < sys.float_info.min:
            return 0.0, True  # 1 - s_k lies below the double range
    elif math.log(q) + k * log_p > (k + 1) * math.log(0.5):  # x^k (1 - x) < q p^k at x = 1/2
        flip, lo, hi = True, 1.0 / (k + 1), 0.5
    else:
        flip, lo, hi = False, floor, 0.5

    def excess(y: float) -> float:
        # increasing in x below the peak and in 1 - x above it; G(x) is
        # max(x, p)^(k-1) times a geometric series in min(x, p) / max(x, p),
        # of log ratio l = -|log(x/p)|, and x - p is q - y when flipped
        ell = -abs(math.log1p(((q - y) if flip else (y - p)) / p))
        log_x, log_1mx = (math.log1p(-y), math.log(y)) if flip else (math.log(y), math.log1p(-y))
        log_series = math.log(k if ell == 0.0 else math.expm1(k * ell) / math.expm1(ell))
        if above:
            return log_1mx + (k - 1) * log_x + log_series - k * log_p
        return k * log_x - math.log(q) - (k - 1) * log_p - log_series

    rising = above or not flip  # excess increases in y
    while hi - lo > 4.0 * sys.float_info.epsilon * hi:
        mid = 0.5 * (lo + hi)
        if (excess(mid) < 0.0) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), flip


def coin_constant(p: float, k: int, s_k: float) -> float:
    """Residue constant ``(s - p) / (q ((k+1) s - k))`` at the dominant root ``s``.

    That is 0/0 at the double root ``s = p = k/(k+1)``, so it is formed as ``1
    / (q D)``, ``D = 1 + 1/expm1(l) - k/expm1(k l)`` with ``l = log(s/p)``: the
    mean of ``k - j`` over ``j < k`` under weights ``(s/p)^j``, ``(k+1)/2`` at
    the double root.  Below ``|k l| = 1/4`` the poles ``1/l`` cancel by hand,
    ``D = (k+1)/2 - k g(k l) + g(l)`` with ``g(x) = coth(x/2)/2 - 1/x``.
    """
    return _residue(p, k, math.log1p((s_k - p) / p))  # s_k - p is exact near the double root


def _residue(p: float, k: int, ell: float) -> float:
    """:func:`coin_constant` from ``l = log(s/p)``."""
    x = k * ell
    if abs(x) < 0.25:
        d = 0.5 * (k + 1) - k * _coth_excess(x) + _coth_excess(ell)
    else:
        # k / expm1(x), 0 and no overflow for a large x
        tail = k * math.exp(-x) / -math.expm1(-x) if x > 0.0 else k / math.expm1(x)
        d = 1.0 + 1.0 / math.expm1(ell) - tail
    return 1.0 / ((1.0 - p) * d)


def _coth_excess(x: float) -> float:
    """``coth(x/2)/2 - 1/x`` for ``|x| < 1/4``, from its series."""
    return sum(c * x ** (2 * n + 1) for n, c in enumerate(_COTH_SERIES))


def coin_exact(p: float, k: int, n: int) -> float:
    """Probability of no head run of length ``k`` within ``n`` tosses.

    Exact dynamic program over the trailing run length (capped below k),
    O(n min(n, k)) time.  ``n < k`` gives exactly 1: the run cannot fit.
    """
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("head probability must lie in [0, 1]")
    if k < 1:
        raise PreconditionError("run length must be at least 1")
    if n < 0:
        raise PreconditionError("number of tosses must be nonnegative")
    return _no_run_probs(p, k, n)[-1]


def _no_run_probs(p: float, k: int, n_max: int, s: float = 1.0) -> list:
    """:func:`coin_exact` divided by ``s ** (n + 1)`` for n = 0..n_max, from one pass of its
    dynamic program, every step divided by ``s``.  No run passes n_max tosses, so
    ``min(k, n_max + 1)`` run lengths are kept: the one dropped at a step is empty."""
    q = 1.0 - p
    alive = [0.0] * min(k, n_max + 1)
    alive[0] = 1.0 / s
    probs = [sum(alive)]
    for _ in range(n_max):
        total = probs[-1]
        alive = [q * total / s] + [p * a / s for a in alive[:-1]]
        probs.append(sum(alive))
    return probs


def _rel_errors(p: float, k: int, s: float, c: float, table: tuple) -> tuple:
    """``|asymptote - exact| / exact`` per table row.

    Where the exact probability or ``s ** (n + 1)`` is not a normal double,
    the quotient is formed from ``p_n / s^(n + 1)``, which stays near ``c``.
    """
    scaled = None
    out = []
    for n, exact, asym in table:
        if min(exact, s ** (n + 1)) >= sys.float_info.min:
            out.append(abs(asym - exact) / exact)
            continue
        if scaled is None:
            scaled = _no_run_probs(p, k, len(table) - 1, s)
        out.append(abs(c - scaled[n]) / scaled[n])
    return tuple(out)


def coin_result(p: float, k: int, n_max: int | None = None) -> CoinResult:
    """Bundle root and constant, optionally with an exact-vs-asymptote table.

    With ``n_max`` given, the table runs over n = 0..n_max.
    """
    # l = log(s/p) from the bisected y: where y = 1 - s, s - p is q - y, to
    # which the double s would add an error of up to an ulp of 1
    y, flip = _coin_gap(p, k)
    s = 1.0 - y if flip else y
    c = _residue(p, k, math.log1p((((1.0 - p) - y) if flip else (y - p)) / p))
    table = rel = None
    if n_max is not None:
        if n_max < 0:
            raise PreconditionError("n_max must be nonnegative")
        table = tuple((n, exact, c * s ** (n + 1)) for n, exact in enumerate(_no_run_probs(p, k, n_max)))
        rel = _rel_errors(p, k, s, c, table)
    return CoinResult(p=p, k=k, s_k=s, c_k=c, table=table, rel_error=rel)


def poisson_phi(r: float) -> PoissonResult:
    """Decay rate and constant for the rate-``r`` continuous special case.

    The companion root of ``x e^{-x} = r e^{-r}``, on the opposite side of 1
    from ``r``, is ``-W_k(-r e^{-r})`` with the Lambert W branch ``k = 0`` for
    ``r > 1`` and ``k = -1`` for ``r < 1``, accurate relative to its own size;
    the constant is ``(phi - r) / (r (phi - 1))``.  Near the double root
    ``r = 1`` the W argument sits on the branch point, where ``lambertw``
    loses its accuracy, so ``phi = 1 + u S(u)`` with ``u = r - 1`` comes from a
    power series instead, which also gives ``(1, 2)`` exactly at ``r = 1``.
    A target ``r e^{-r}`` below the normal double range raises
    :class:`NumericError`.
    """
    if r <= 0.0:
        raise PreconditionError("rate must be positive")
    u = r - 1.0
    if abs(u) < _SERIES_REACH:
        s = 0.0
        for coeff in reversed(_COMPANION_SERIES):
            s = s * u + coeff
        return PoissonResult(r=r, phi_r=1.0 + u * s, c_r=(s - 1.0) / (r * s))
    target = r * math.exp(-r)
    if target < sys.float_info.min:
        raise NumericError(f"r e^-r = {target:.3g} underflows at r = {r:.6g}; no companion root to report")
    from scipy.special import lambertw

    phi = float(-lambertw(-target, 0 if r > 1.0 else -1).real)
    return PoissonResult(r=r, phi_r=phi, c_r=(phi - r) / (r * (phi - 1.0)))
