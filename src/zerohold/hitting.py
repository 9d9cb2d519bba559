"""Hitting the origin: reach probabilities, exponential moments, decay rates.

For an interior state ``i`` write ``tau_0`` for the first hitting time of the
origin by the killed chain.  The exponential moment

    F_i(lam) = E_i[ exp(lam * tau_0) ; tau_0 < infinity ]

solves the linear system ``M(lam) F = r`` with ``M(lam) = diag(q_i - lam) -
offdiag(q_ij)`` over the interior and ``r_i = q_{i,0}``.  Finiteness of F is
read off structurally: ``M(lam)`` is a nonsingular M-matrix exactly when
elimination without pivoting meets only positive pivots, so the solver reports
an infinite moment the moment a pivot (or a solution entry) goes nonpositive,
with no decay rate computed up front.  The never-hit probabilities solve the
same matrix at ``lam = 0`` against the escape column, ``M(0) beta =
q_{.,esc}``: a positive system, so small probabilities keep their relative
accuracy instead of cancelling in ``1 - F(0)``.

The elimination is :func:`zerohold.spectral.mmatrix_factor`, handed the
spec's :attr:`~zerohold.chain.ChainSpec.killed_block`: the active interior
(escape state removed), M(0)'s diagonal on it and the rates among it,
found once per spec together with the choice between band and dense
elimination.  When that block is tridiagonal, as on birth-death chains and
their truncations, even with an escape state cut out of the middle, each
transform costs O(n); any other interior costs a dense O(n^3) elimination,
one LAPACK ``getrf`` call on which partial pivoting moves no row.
:func:`analyze_hitting` keeps M(0)'s factors from the solve for beta; the
phi solver's first transform, at ``lam = 0``, reuses them, and so does the
first shift of the Perron iteration on a dense block.

On truncations (``escape_state`` set) the boundary state counts as escaped:
its row is removed and its moment is zero.  That is what lets a finite window
reproduce never-return probabilities of an infinite transient walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainSpec
from .errors import NumericError, PreconditionError
from .spectral import mmatrix_factor, mmatrix_solve, perron_decay

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
    ``factors`` are M(0)'s from the solve for ``beta``, for the phi solver's
    first transform and, on a dense block, the Perron iteration's first
    shift; None without an active interior.
    """

    beta: np.ndarray
    delta: float
    mu_C: float
    alpha_C: float
    transient: bool
    factors: object


def never_hit_prob(spec: ChainSpec, factors=None) -> np.ndarray:
    """Probability of never reaching the origin, by starting state.

    Visiting the escape state of a truncation counts as never returning: its
    entry is one, and the active interior solves ``M(0) beta = q_{.,esc}``.
    Without an escape state every interior state returns and the vector is
    zero; the factorization still runs, as the check that it does, unless
    the caller hands in M(0)'s ``factors``.
    """
    beta = np.zeros(spec.n_states)
    esc = spec.escape_state
    if esc is not None:
        beta[esc] = 1.0
    if spec.killed_block is None:
        return beta
    idx, diag, off = spec.killed_block
    factors = mmatrix_factor(diag, off) if factors is None else factors
    if factors is None:
        raise PreconditionError("some interior states reach neither the origin nor the escape state")
    if esc is not None:
        beta[idx] = mmatrix_solve(factors, spec.rates[idx, esc])
    return beta


def hitting_mgf(spec: ChainSpec, lam: float, factors=None) -> MgfValue:
    """Exponential moments F_i(lam) of the origin hitting time, with derivatives.

    Derivatives come from a second solve of the same factored system, using
    ``M(lam) F' = F``.  The ``finite`` flag is detected structurally; the
    elimination runs on the three bands when the interior allows it, see the
    module docstring.  ``lam`` may be any real value; ``factors`` are
    M(lam)'s when the caller holds them, as :class:`HittingAnalysis` does for 0.
    """
    n = spec.n_states
    lam = float(lam)
    if spec.killed_block is None:
        return MgfValue(lam=lam, finite=True, values=np.zeros(n), derivs=np.zeros(n))
    idx, diag, off = spec.killed_block
    factors = mmatrix_factor(diag - lam, off) if factors is None else factors
    f = None if factors is None else mmatrix_solve(factors, spec.rates[idx, 0])
    if f is None or f.min() < -1e-12:
        return MgfValue(lam=lam, finite=False, values=None, derivs=None)
    values = np.zeros(n)
    derivs = np.zeros(n)
    values[idx] = f
    derivs[idx] = mmatrix_solve(factors, f)
    return MgfValue(lam=lam, finite=True, values=values, derivs=derivs)


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

    ``alpha_C`` is the Perron decay rate of M(0) on the spec's killed block
    (escape boundary removed), from :func:`~zerohold.spectral.perron_decay`
    on the same diagonal and rates that the transforms factor.  For recurrent
    chains the survival decay ``mu_C`` coincides with ``alpha_C``; a transient
    spec keeps ``mu_C = 0`` because escaping mass never dies.  A spec whose
    origin only returns to itself has no killed chain at all; both rates are
    reported infinite.
    """
    block = spec.killed_block
    # None on a singular M(0) too, on which never_hit_prob raises
    factors = None if block is None else mmatrix_factor(*block[1:])
    beta = never_hit_prob(spec, factors)
    delta = float(spec.rates[0] @ beta) / spec.q0
    if block is None:
        return HittingAnalysis(beta=beta, delta=delta, mu_C=math.inf, alpha_C=math.inf, transient=False, factors=None)
    alpha = perron_decay(*block[1:], factors)
    transient = delta > TRANSIENT_DELTA_TOL
    return HittingAnalysis(beta=beta, delta=delta, mu_C=0.0 if transient else alpha, alpha_C=alpha,
                           transient=transient, factors=factors)


def harmonic_vector_bd(spec: ChainSpec) -> np.ndarray:
    """Harmonic vector of a recurrent killed chain below its top state, pinned to h_1 = 1.

    The top state is the escape state, or the last state of a spec without one.
    The chance beta of reaching it before the origin, :func:`never_hit_prob`'s
    M(0) solve, is harmonic below it and zero at the origin, so h = beta / beta_1;
    on a birth-death walk, the recursion ``b_i (h_{i+1} - h_i) = d_i (h_i - h_{i-1})``.
    A vector past the double range raises :class:`~zerohold.errors.NumericError`.
    """
    if spec.n_states < 2:
        raise PreconditionError("no interior states: no harmonic vector")
    if spec.escape_state is None:
        beta, delta = never_hit_prob(replace(spec, escape_state=spec.n_states - 1)), 0.0
    else:
        beta = never_hit_prob(spec)
        delta = float(spec.rates[0] @ beta) / spec.q0
    if delta > 0.05:
        raise PreconditionError(f"harmonic_vector_bd needs a recurrent walk; escape mass {delta:.3g} says otherwise")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = beta / beta[1]
    if not np.all(np.isfinite(h)):
        raise NumericError(f"harmonic vector overflows: the top state is reached with chance {beta[1]:.3g} from state 1")
    return h
