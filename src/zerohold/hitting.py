"""Hitting the origin: reach probabilities, exponential moments, decay rates.

For an interior state ``i`` write ``tau_0`` for the first hitting time of the
origin by the killed chain.  The exponential moment

    F_i(lam) = E_i[ exp(lam * tau_0) ; tau_0 < infinity ]

solves the linear system ``M(lam) F = r`` with ``M(lam) = diag(q_i - lam) -
offdiag(q_ij)`` over the interior and ``r_i = q_{i,0}``.  Finiteness of F is
read off structurally: ``M(lam)`` is a nonsingular M-matrix exactly when
elimination without pivoting meets only positive pivots, so the solver reports
an infinite moment the moment a pivot (or a solution entry) goes nonpositive,
with no decay rate computed up front.

On truncations (``escape_state`` set) the boundary state counts as escaped:
its row is removed and its moment is zero.  That is what lets a finite window
reproduce never-return probabilities of an infinite transient walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .chain import ChainSpec
from .errors import PreconditionError, StructureError
from .spectral import killed_generator, perron_decay, solve_linear

__all__ = [
    "HittingAnalysis",
    "MgfValue",
    "analyze_hitting",
    "bd_gamma",
    "harmonic_vector_bd",
    "hitting_mgf",
    "never_hit_prob",
]

# a truncation is called transient when the exit-weighted escape mass exceeds this
TRANSIENT_DELTA_TOL = 1e-6


@dataclass(frozen=True)
class MgfValue:
    """Exponential moments of the origin hitting time, or an infinity flag.

    ``values`` and ``derivs`` are indexed by state (entry 0 unused); both are
    ``None`` when ``finite`` is false.
    """

    lam: float
    finite: bool
    values: np.ndarray | None
    derivs: np.ndarray | None


@dataclass(frozen=True)
class HittingAnalysis:
    """Bundle of hitting quantities for one spec.

    ``beta`` is the never-hit probability by state (entry 0 is zero), ``delta``
    its exit-weighted average, and ``mu_C <= alpha_C`` the decay pair.
    """

    beta: np.ndarray
    delta: float
    mu_C: float
    alpha_C: float
    transient: bool


def _active_interior(spec: ChainSpec):
    esc = spec.escape_state
    return [i for i in spec.interior_states() if i != esc]


def never_hit_prob(spec: ChainSpec) -> np.ndarray:
    """Probability of never reaching the origin, by starting state.

    Solves the reach-probability system over the interior.  Visiting the
    escape state of a truncation counts as never returning, so the vector is
    identically zero exactly for (truncations of) recurrent chains.
    """
    n = spec.n_states
    beta = np.zeros(n)
    active = _active_interior(spec)
    if spec.escape_state is not None:
        beta[spec.escape_state] = 1.0
    if not active:
        return beta
    idx = np.asarray(active)
    m = -spec.rates[np.ix_(idx, idx)].astype(float)
    np.fill_diagonal(m, spec.exit_rates[idx] + np.diag(m))
    hit = solve_linear(m, spec.rates[idx, 0])
    beta[idx] = np.clip(1.0 - hit, 0.0, 1.0)
    return beta


def _mmatrix_factor(m: np.ndarray) -> np.ndarray | None:
    """LU factors of ``m`` by elimination without pivoting; None on a nonpositive pivot.

    The factors come packed in one array: U on and above the diagonal, the
    unit-lower L multipliers below it.  Positive pivots certify that the
    Z-matrix ``m`` is a nonsingular M-matrix, which is the structural
    finiteness test.
    """
    n = m.shape[0]
    a = m.copy()
    tiny = n * np.finfo(float).eps * max(np.abs(a).max(), 1.0)
    for k in range(n):
        pivot = a[k, k]
        if pivot <= tiny:
            return None
        a[k + 1 :, k] /= pivot
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a


def _lu_apply(lu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L U x = rhs`` with the packed factors of :func:`_mmatrix_factor`."""
    y = solve_triangular(lu, rhs, lower=True, unit_diagonal=True, check_finite=False)
    return solve_triangular(lu, y, check_finite=False)


def hitting_mgf(spec: ChainSpec, lam: float) -> MgfValue:
    """Exponential moments F_i(lam) of the origin hitting time, with derivatives.

    Derivatives come from a second solve of the same factored system, using
    ``M(lam) F' = F``.  The ``finite`` flag is detected structurally, see the
    module docstring.

    Parameters
    ----------
    spec : ChainSpec
    lam : float
        Transform argument; any real value is accepted.
    """
    n = spec.n_states
    active = _active_interior(spec)
    if not active:
        return MgfValue(lam=float(lam), finite=True, values=np.zeros(n), derivs=np.zeros(n))
    idx = np.asarray(active)
    m = -spec.rates[np.ix_(idx, idx)].astype(float)
    np.fill_diagonal(m, spec.exit_rates[idx] - float(lam) + np.diag(m))
    lu = _mmatrix_factor(m)
    if lu is None:
        return MgfValue(lam=float(lam), finite=False, values=None, derivs=None)
    f = _lu_apply(lu, spec.rates[idx, 0])
    if np.any(f < -1e-12):
        return MgfValue(lam=float(lam), finite=False, values=None, derivs=None)
    values = np.zeros(n)
    derivs = np.zeros(n)
    values[idx] = f
    derivs[idx] = _lu_apply(lu, f)
    return MgfValue(lam=float(lam), finite=True, values=values, derivs=derivs)


def bd_gamma(b: float, d: float, lam: float) -> float:
    """Per-step transform factor for a spatially homogeneous birth-death walk.

    The hitting moment from level i is ``gamma ** i`` with

        gamma = (b + d - lam - sqrt((b + d - lam)^2 - 4 b d)) / (2 b),

    valid for ``lam <= b + d - 2 sqrt(b d)``.
    """
    if b <= 0.0 or d <= 0.0:
        raise PreconditionError("bd_gamma needs positive rates")
    s = b + d - lam
    disc = s * s - 4.0 * b * d
    if disc < 0.0:
        raise PreconditionError(
            f"bd_gamma domain: lam={lam} exceeds b + d - 2 sqrt(b d) = {b + d - 2.0 * math.sqrt(b * d)}"
        )
    return (s - math.sqrt(disc)) / (2.0 * b)


def analyze_hitting(spec: ChainSpec) -> HittingAnalysis:
    """Never-hit probabilities, their exit-weighted mass, and the decay pair.

    ``alpha_C`` is the Perron decay rate of the killed generator (escape
    boundary removed).  For recurrent chains the survival decay ``mu_C``
    coincides with ``alpha_C``; a transient spec keeps ``mu_C = 0`` because
    escaping mass never dies.  A spec whose origin only returns to itself has
    no killed chain at all; both rates are reported infinite.
    """
    beta = never_hit_prob(spec)
    delta = float(spec.rates[0] @ beta) / spec.q0
    if not _active_interior(spec):
        return HittingAnalysis(beta=beta, delta=delta, mu_C=math.inf, alpha_C=math.inf, transient=False)
    alpha = perron_decay(killed_generator(spec, drop_escape=True))
    transient = delta > TRANSIENT_DELTA_TOL
    return HittingAnalysis(
        beta=beta, delta=delta, mu_C=0.0 if transient else alpha, alpha_C=alpha, transient=transient
    )


def _bd_structure(spec: ChainSpec):
    n = spec.n_states - 1
    if n < 1:
        raise StructureError("no interior states: not a birth-death walk")
    r = spec.rates
    up = np.zeros(n + 1)
    down = np.zeros(n + 1)
    for i in range(1, n + 1):
        row = r[i].copy()
        if i > 1:
            down[i] = row[i - 1]
            row[i - 1] = 0.0
        else:
            down[i] = row[0]
            row[0] = 0.0
        if i < n:
            up[i] = row[i + 1]
            row[i + 1] = 0.0
        if np.any(row != 0.0):
            j = int(np.flatnonzero(row != 0.0)[0])
            raise StructureError(f"rate {i} -> {j} breaks the birth-death band structure")
        if down[i] <= 0.0 or (i < n and up[i] <= 0.0):
            raise StructureError(f"state {i} lacks a positive nearest-neighbour rate")
    return up, down


def harmonic_vector_bd(spec: ChainSpec) -> np.ndarray:
    """Harmonic vector of a recurrent birth-death killed chain, pinned to h_1 = 1.

    Runs the two-term recursion ``b_i (h_{i+1} - h_i) = d_i (h_i - h_{i-1})``
    from ``h_0 = 0, h_1 = 1`` up to the truncation top.  The result is killed-
    chain harmonic at every interior state below the boundary.  Entry 0 of the
    returned vector is zero.
    """
    up, down = _bd_structure(spec)
    ha_beta = never_hit_prob(spec)
    delta_proxy = float(spec.rates[0] @ ha_beta) / spec.q0
    if delta_proxy > 0.05:
        raise PreconditionError(
            f"harmonic_vector_bd needs a recurrent walk; escape mass {delta_proxy:.3g} says otherwise"
        )
    n = spec.n_states - 1
    h = np.zeros(n + 1)
    h[1] = 1.0
    for i in range(1, n):
        h[i + 1] = h[i] + (down[i] / up[i]) * (h[i] - h[i - 1])
    return h
