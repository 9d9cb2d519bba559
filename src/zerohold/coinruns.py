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


@dataclass(frozen=True)
class CoinResult:
    """Answer set for one ``(p, k)`` pair.

    ``table`` rows, when built, are ``(n, exact, asymptote)`` with the
    asymptote ``c_k * s_k ** (n + 1)``.
    """

    p: float
    k: int
    s_k: float
    c_k: float
    table: tuple | None = None


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
    the peak away from ``p``, on the log of the second form in ``y = 1 - x``
    above the peak and of the first in ``y = x`` below it.  Both keep ``s_k``
    a simple, well-conditioned root, also where it meets ``p`` at the peak,
    and bisection from ``[q p^k, peak]`` to a width of 4 eps relative to ``y``
    gives ``1 - s_k`` to relative accuracy however close ``s_k`` is to 1.
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError("head probability must lie strictly inside (0, 1)")
    if k < 1:
        raise PreconditionError("run length must be at least 1")
    q = 1.0 - p
    if k == 1:
        # linear equation x - q = 0
        return q
    above = p < k / (k + 1)
    log_p = math.log(p)

    def excess(y: float) -> float:
        # increasing in y; G(x) is max(x, p)^(k-1) times a geometric series in
        # min(x, p) / max(x, p), and max(x, p) is x above the peak, p below it
        ell = math.log(p / (1.0 - y) if above else y / p)
        log_series = math.log(k if ell == 0.0 else math.expm1(k * ell) / math.expm1(ell))
        if above:
            return math.log(y) + (k - 1) * math.log1p(-y) + log_series - k * log_p
        return k * math.log(y) - math.log(q) - (k - 1) * log_p - log_series

    lo = math.exp(math.log(q) + k * log_p)
    if lo < sys.float_info.min:
        return 1.0  # 1 - s_k lies below the double range
    hi = 1.0 / (k + 1) if above else k / (k + 1)
    while hi - lo > 4.0 * sys.float_info.epsilon * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    return 1.0 - y if above else y


def coin_constant(p: float, k: int, s_k: float) -> float:
    """Residue constant ``(s-p) / (q ((k+1) s - k))`` at the dominant root.

    The ``k = 1`` fair coin hits 0/0 and is returned as the degenerate value
    0.0: a run of length one appears at the very first head, so there is no
    geometric sharpening to report.  A vanishing denominator away from that
    corner raises :class:`NumericError`.
    """
    q = 1.0 - p
    num = s_k - p
    den = q * ((k + 1) * s_k - k)
    if abs(den) < 1e-12:
        if abs(num) < 1e-9:
            return 0.0
        raise NumericError("run-length constant has a vanishing denominator")
    return num / den


def coin_exact(p: float, k: int, n: int) -> float:
    """Probability of no head run of length ``k`` within ``n`` tosses.

    Exact dynamic program over the trailing run length (capped below k),
    O(n k) time.  ``n < k`` gives exactly 1: the run cannot fit.
    """
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("head probability must lie in [0, 1]")
    if k < 1:
        raise PreconditionError("run length must be at least 1")
    if n < 0:
        raise PreconditionError("number of tosses must be nonnegative")
    q = 1.0 - p
    alive = [0.0] * k
    alive[0] = 1.0
    for _ in range(n):
        total = sum(alive)
        nxt = [0.0] * k
        nxt[0] = q * total
        for r in range(k - 1):
            nxt[r + 1] = p * alive[r]
        alive = nxt
    return sum(alive)


def coin_result(p: float, k: int, n_max: int | None = None) -> CoinResult:
    """Bundle root and constant, optionally with an exact-vs-asymptote table.

    With ``n_max`` given, the table runs over n = 0..n_max.
    """
    s = coin_root(p, k)
    c = coin_constant(p, k, s)
    table = None
    if n_max is not None:
        if n_max < 0:
            raise PreconditionError("n_max must be nonnegative")
        table = tuple(
            (n, coin_exact(p, k, n), c * s ** (n + 1)) for n in range(n_max + 1)
        )
    return CoinResult(p=p, k=k, s_k=s, c_k=c, table=table)


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
