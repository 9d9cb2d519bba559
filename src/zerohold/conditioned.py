"""Transformed chains: conditioned limits, tilted reductions, and the killed vague limit.

Every constructor here returns an executable description of a transformed
chain rather than a semigroup.  Interior dynamics are ordinary competing
exponentials with rates q_{ij} h_j / h_i; what distinguishes the variants is
the law of one origin visit:

  * exit clock with density proportional to exp((tilt - q0) u) on [0, theta),
  * exit target drawn with weight q_{0,j} h_j,
  * an optional per-visit kill, either at the drawn clock time ("at-time",
    the vague limit) or after holding the full threshold ("at-threshold",
    the tilted reduction with its deficit 1 - I(tilt)).

The in-visit survivor function is exp((tilt - q0) u) * h_origin(u) for every
variant, which is what the simulator uses for starts with a running clock.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotics import LimitVector, _j_integral, return_mgf
from .chain import ChainSpec
from .errors import PreconditionError
from .hitting import hitting_mgf
from .spectral import killed_generator

__all__ = [
    "ConditionedChain",
    "conditioned_to_json",
    "make_hlambda",
    "make_limit_chain",
    "make_subexp_weak",
    "make_vague_limit",
]


@dataclass(frozen=True, eq=False)
class ConditionedChain:
    """Executable description of a transformed chain.

    ``rates[i, j]`` holds the transformed jump rate from interior i (row 0 is
    zero; column 0 is the rate back to a fresh origin).  ``hold_rates[i]`` is
    the total event rate at i including ``interior_kill[i]``, the killing
    deficit left when h fails to be harmonic at i.  The origin visit is
    described by ``tilt``, ``exit_probs`` (normalized, index 0 = immediate
    self-return), ``visit_kill_prob`` and ``kill_mode``.
    """

    spec: ChainSpec
    kind: str
    tilt: float
    h_values: np.ndarray
    rates: np.ndarray
    hold_rates: np.ndarray
    interior_kill: np.ndarray
    exit_probs: np.ndarray
    visit_kill_prob: float
    kill_mode: str
    h_origin: Callable[[float], float]
    killing_hazard: Callable[[float], float] | None = None
    honest: bool = True
    harmonic_residual: float = 0.0

    def origin_survivor(self, u: float) -> float:
        """P(origin visit still in progress at clock u)."""
        return math.exp((self.tilt - self.spec.q0) * u) * self.h_origin(u)


def _transform_rates(spec: ChainSpec, h: np.ndarray) -> np.ndarray:
    n = spec.n_states
    out = np.zeros((n, n))
    for i in range(1, n):
        row = spec.rates[i] * h / h[i]
        row[i] = 0.0
        out[i] = row
    return out


def _exit_probs(spec: ChainSpec, h: np.ndarray) -> np.ndarray:
    w = spec.rates[0] * h
    total = w.sum()
    if total <= 0.0:
        raise PreconditionError("no exit target has positive transformed weight")
    return w / total


def make_limit_chain(spec: ChainSpec, p: LimitVector) -> ConditionedChain:
    """Chain conditioned to hold out forever, via the h-transform by p.

    Honest by construction: interior rates (p_j/p_i) q_{ij}, exit clock
    tilted by p's rate, no killing anywhere.
    """
    if p.values.shape != (spec.n_states,):
        raise PreconditionError("limit vector length does not match the spec")
    if not np.all(p.values > 0.0):
        raise PreconditionError("limit vector must be strictly positive")
    h = p.values / p.values[0]
    p0 = p.values[0]

    def h_origin(u: float) -> float:
        return p.origin(u) / p0

    rates = _transform_rates(spec, h)
    return ConditionedChain(
        spec=spec,
        kind="limit",
        tilt=p.phi,
        h_values=h,
        rates=rates,
        hold_rates=rates.sum(axis=1),
        interior_kill=np.zeros(spec.n_states),
        exit_probs=_exit_probs(spec, h),
        visit_kill_prob=0.0,
        kill_mode="none",
        h_origin=h_origin,
    )


def make_vague_limit(spec: ChainSpec) -> ConditionedChain:
    """Substochastic vague limit: interior untouched, origin visits can die.

    Heavy-tail hypotheses are the caller's assertion; nothing here checks
    them.  Each origin visit is killed with probability exp(-q0 theta), at a
    clock time with the same truncated-exponential law as a normal exit; the
    equivalent killing hazard is exposed as a callable.
    """
    q0 = spec.q0
    theta = spec.theta
    n = spec.n_states
    h = np.ones(n)
    pi = math.exp(-q0 * theta)
    w = -math.expm1(-q0 * theta)

    def h_origin(u: float) -> float:
        return -math.expm1(-q0 * (theta - u)) / w

    def hazard(u: float) -> float:
        if not 0.0 <= u < theta:
            raise PreconditionError(f"clock {u} outside [0, {theta})")
        return q0 * pi / -math.expm1(-q0 * (theta - u))

    rates = _transform_rates(spec, h)
    return ConditionedChain(
        spec=spec,
        kind="vague",
        tilt=0.0,
        h_values=h,
        rates=rates,
        hold_rates=rates.sum(axis=1),
        interior_kill=np.zeros(n),
        exit_probs=_exit_probs(spec, h),
        visit_kill_prob=pi,
        kill_mode="at-time",
        h_origin=h_origin,
        killing_hazard=hazard,
        honest=False,
    )


def make_hlambda(spec: ChainSpec, lam: float) -> ConditionedChain:
    """Tilted reduction: interior rates rescaled by hitting moments at lam.

    The transformed chain is conservative away from the origin; every origin
    visit either exits at a lam-tilted clock or holds the full threshold and
    dies there, with per-visit death probability 1 - I(lam).  Requires
    I(lam) <= 1.
    """
    if lam < 0.0:
        raise PreconditionError("tilt must be nonnegative")
    ret = return_mgf(spec, lam)
    if not ret.finite or ret.value > 1.0 + 1e-12:
        raise PreconditionError(
            f"return transform at tilt {lam} is {ret.value if ret.finite else 'infinite'}; "
            "must not exceed one"
        )
    mgf = hitting_mgf(spec, lam)
    h = mgf.values.copy()
    h[0] = 1.0
    q0 = spec.q0
    theta = spec.theta
    a = lam - q0
    jtheta = _j_integral(theta, a)
    ival = ret.value

    def h_origin(u: float) -> float:
        return (1.0 - ival * _j_integral(u, a) / jtheta) * math.exp(-a * u)

    kill = max(0.0, 1.0 - ival)
    rates = _transform_rates(spec, h)
    return ConditionedChain(
        spec=spec,
        kind="hlambda",
        tilt=lam,
        h_values=h,
        rates=rates,
        hold_rates=rates.sum(axis=1),
        interior_kill=np.zeros(spec.n_states),
        exit_probs=_exit_probs(spec, h),
        visit_kill_prob=kill,
        kill_mode="at-threshold",
        h_origin=h_origin,
        honest=kill <= 1e-10,
    )


def make_subexp_weak(spec: ChainSpec, a: np.ndarray) -> ConditionedChain:
    """Weak limit for the heavy-tail regime, built from tail coefficients a.

    h_i = 1 + a_i / ((e^{q0 theta} - 1) m) with m the exit-weighted mean of
    a.  The origin visit is exactly honest by the choice of m; interior rows
    are conservative precisely where a is harmonic for the killed chain.
    Non-harmonic rows leave a killing deficit, reported per state, and the
    ``honest`` flag summarizes the residual over rows below any escape
    marker.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.n_states,):
        raise PreconditionError("tail-coefficient vector length must equal n_states")
    if a[0] != 0.0:
        raise PreconditionError("tail coefficient at the origin must be zero")
    if np.any(a < 0.0):
        raise PreconditionError("tail coefficients must be nonnegative")
    q0 = spec.q0
    theta = spec.theta
    m = float(spec.rates[0, 1:] @ a[1:]) / q0
    if m <= 0.0:
        raise PreconditionError("tail coefficients vanish on every exit target")
    c = 1.0 / (math.expm1(q0 * theta) * m)
    h = 1.0 + c * a
    h[0] = 1.0
    w = -math.expm1(-q0 * theta)

    def h_origin(u: float) -> float:
        return -math.expm1(-q0 * (theta - u)) / w

    rates = _transform_rates(spec, h)
    sums = rates.sum(axis=1)
    # conservativeness deficit per row becomes a killing rate (never negative)
    kill_rates = np.maximum(spec.exit_rates - sums, 0.0)
    kill_rates[0] = 0.0
    hold = sums + kill_rates

    # harmonicity of a under the killed generator, escape row set aside
    gen = killed_generator(spec)
    resid = gen.matrix @ a[1:]
    keep = np.ones(spec.n_states - 1, dtype=bool)
    if spec.escape_state is not None:
        keep[spec.escape_state - 1] = False
    worst = float(np.max(np.abs(resid[keep]))) if keep.any() else 0.0
    return ConditionedChain(
        spec=spec,
        kind="subexp-weak",
        tilt=0.0,
        h_values=h,
        rates=rates,
        hold_rates=hold,
        interior_kill=kill_rates,
        exit_probs=_exit_probs(spec, h),
        visit_kill_prob=0.0,
        kill_mode="none",
        h_origin=h_origin,
        honest=worst <= 1e-9 * float(np.max(a)),
        harmonic_residual=worst,
    )


def conditioned_to_json(cond: ConditionedChain) -> str:
    """Serialize a ConditionedChain to its JSON wire format."""
    n = cond.spec.n_states
    triples = [
        [i, j, cond.rates[i, j]]
        for i in range(1, n)
        for j in range(1, n)
        if i != j and cond.rates[i, j] > 0.0
    ]
    doc: dict = {
        "kind": cond.kind,
        "interior_rates": triples,
        "origin_holding": {
            "type": "tilted_exponential",
            "phi": cond.tilt,
            "q0": cond.spec.q0,
            "theta": cond.spec.theta,
        },
        "exit_probs": [[j, cond.exit_probs[j]] for j in range(n) if cond.exit_probs[j] > 0.0],
        "h_values": cond.h_values.tolist(),
        "honest": cond.honest,
        "visit_kill_prob": cond.visit_kill_prob,
        "kill_mode": cond.kill_mode,
        "harmonic_residual": cond.harmonic_residual,
    }
    if cond.killing_hazard is not None:
        doc["hazard"] = {
            "type": "theorem36",
            "q0": cond.spec.q0,
            "theta": cond.spec.theta,
        }
    kills = [[i, cond.interior_kill[i]] for i in range(n) if cond.interior_kill[i] > 0.0]
    if kills:
        doc["interior_kill"] = kills
    return json.dumps(doc, indent=2)
