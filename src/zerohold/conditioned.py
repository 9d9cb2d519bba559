"""Transformed chains: conditioned limits, tilted reductions, and the killed vague limit.

Every constructor here returns an executable description of one Doob
h-transform (:func:`_h_transform`) rather than a semigroup: interior rates
q_{ij} h_j / h_i, exit targets drawn with weight q_{0,j} h_j, and an origin
visit whose exit clock has density proportional to exp((tilt - q0) u) on
[0, theta).  The variants differ in h, the tilt and the kill: per visit at
the drawn clock time ("at-time", the vague limit) or after holding the full
threshold ("at-threshold", the tilted reduction with its deficit 1 - I(tilt)),
or in the interior where h is not harmonic (the subexponential weak limit).

Every variant's in-visit survivor exp((tilt - q0) u) * h_origin(u) is computed
from stored numbers; the simulator uses it for starts with a running clock.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import LimitVector, _hold_profile, _j_integral, return_mgf
from .chain import ChainSpec
from .errors import PreconditionError

__all__ = [
    "ConditionedChain",
    "conditioned_to_json",
    "make_hlambda",
    "make_limit_chain",
    "make_subexp_weak",
    "make_vague_limit",
]

_KILL_MODES = {"vague": "at-time", "hlambda": "at-threshold"}


@dataclass(frozen=True, eq=False)
class ConditionedChain:
    """Executable description of a transformed chain.

    ``rates[i, j]`` holds the transformed jump rate from interior i (row 0 is
    zero; column 0 is the rate back to a fresh origin).  ``hold_rates[i]`` is
    the total event rate at i including ``interior_kill[i]``, the killing
    deficit left when h fails to be harmonic at i.  The origin visit is
    described by ``tilt``, ``exit_probs`` (normalized, index 0 = immediate
    self-return), ``visit_kill_prob`` and ``exit_mass``, the chance I(tilt)
    that a visit exits rather than dies at the threshold (1 for every kind
    but the tilted reduction); :attr:`kill_mode` follows from ``kind``.
    """

    spec: ChainSpec
    kind: str
    tilt: float
    h_values: np.ndarray
    rates: np.ndarray
    hold_rates: np.ndarray
    interior_kill: np.ndarray
    exit_probs: np.ndarray
    visit_kill_prob: float = 0.0
    exit_mass: float = 1.0
    honest: bool = True
    harmonic_residual: float = 0.0

    @property
    def kill_mode(self) -> str:
        """Where an origin visit may die: "at-time", "at-threshold" or "none"."""
        return _KILL_MODES.get(self.kind, "none")

    def h_origin(self, u: float) -> float:
        """h at the origin at clock u relative to a fresh clock; a tilted reduction also kills at the threshold."""
        self.spec.check_clock(u)
        theta, a = self.spec.theta, self.tilt - self.spec.q0
        if self.kind != "hlambda":
            return _hold_profile(theta, a, u)
        return (1.0 - self.exit_mass * _j_integral(u, a) / _j_integral(theta, a)) * math.exp(-a * u)

    def origin_survivor(self, u: float) -> float:
        """P(origin visit still in progress at clock u)."""
        return math.exp((self.tilt - self.spec.q0) * u) * self.h_origin(u)

    def killing_hazard(self, u: float) -> float:
        """The vague limit's killing hazard at clock u of an origin visit."""
        if self.kind != "vague":
            raise PreconditionError(f"a {self.kind} chain has no killing hazard")
        self.spec.check_clock(u)
        q0, theta = self.spec.q0, self.spec.theta
        return q0 * self.visit_kill_prob / -math.expm1(-q0 * (theta - u))


def _h_transform(spec: ChainSpec, kind: str, h: np.ndarray, tilt: float, kill_deficit=False,
                 **visit) -> ConditionedChain:
    """The h-transform of ``spec`` by ``h`` (with ``h[0] = 1``) and an origin clock tilted by ``tilt``.

    With ``kill_deficit`` an interior row whose transformed rates sum below
    its exit rate kills at the difference.  A state where h is zero is never
    entered: no transformed rate leads into it and its own row stays empty,
    with no kill.  ``visit`` holds the remaining fields of
    :class:`ConditionedChain`: the visit kill, the exit mass and the honesty
    report.
    """
    live = h > 0.0
    rates = np.divide(spec.rates * h, h[:, None], out=np.zeros_like(spec.rates), where=live[:, None])
    rates[0] = 0.0
    np.fill_diagonal(rates, 0.0)
    sums = rates.sum(axis=1)
    kill = np.maximum(spec.exit_rates - sums, 0.0) if kill_deficit else np.zeros(spec.n_states)
    kill[0] = 0.0
    kill[~live] = 0.0
    w = spec.rates[0] * h
    total = w.sum()
    if total <= 0.0:
        raise PreconditionError("no exit target has positive transformed weight")
    return ConditionedChain(spec=spec, kind=kind, tilt=tilt, h_values=h, rates=rates, hold_rates=sums + kill,
                            interior_kill=kill, exit_probs=w / total, **visit)


def make_limit_chain(spec: ChainSpec, p: LimitVector) -> ConditionedChain:
    """Chain conditioned to hold out forever, via the h-transform by p.

    Honest by construction: interior rates (p_j/p_i) q_{ij}, exit clock
    tilted by p's rate, no killing anywhere.  A state where p is zero, such
    as the escape state of a truncation, is never entered.
    """
    if p.values.shape != (spec.n_states,):
        raise PreconditionError("limit vector length does not match the spec")
    if not (p.values[0] > 0.0 and np.all(p.values >= 0.0)):
        raise PreconditionError("limit vector must be nonnegative and positive at the origin")
    h = p.values / p.values[0]
    return _h_transform(spec, "limit", h, p.phi)


def make_vague_limit(spec: ChainSpec) -> ConditionedChain:
    """Substochastic vague limit: interior untouched, origin visits can die.

    Heavy-tail hypotheses are the caller's assertion; nothing here checks
    them.  Each origin visit is killed with probability exp(-q0 theta), at a
    clock time with the same truncated-exponential law as a normal exit; the
    equivalent killing hazard is :meth:`ConditionedChain.killing_hazard`.
    """
    return _h_transform(spec, "vague", np.ones(spec.n_states), 0.0,
                        visit_kill_prob=math.exp(-spec.q0 * spec.theta), honest=False)


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
    h = ret.mgf.values.copy()
    h[0] = 1.0
    kill = max(0.0, 1.0 - ret.value)
    return _h_transform(spec, "hlambda", h, lam, visit_kill_prob=kill, exit_mass=ret.value, honest=kill <= 1e-10)


def make_subexp_weak(spec: ChainSpec, a: np.ndarray) -> ConditionedChain:
    """Weak limit for the heavy-tail regime, built from tail coefficients a.

    h_i = 1 + a_i / ((e^{q0 theta} - 1) m) with m the exit-weighted mean of
    a, the factor formed as the odds e^{-q0 theta} / (1 - e^{-q0 theta}) that
    a fresh clock completes, which underflow rather than overflow.  The origin
    visit is exactly honest by the choice of m; interior rows are
    conservative precisely where a is harmonic for the killed chain.
    Non-harmonic rows leave a killing deficit, reported per state, and the
    ``honest`` flag summarizes the residual over rows below any escape marker.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.n_states,):
        raise PreconditionError("tail-coefficient vector length must equal n_states")
    if a[0] != 0.0:
        raise PreconditionError("tail coefficient at the origin must be zero")
    if np.any(a < 0.0):
        raise PreconditionError("tail coefficients must be nonnegative")
    q0 = spec.q0
    m = float(spec.rates[0, 1:] @ a[1:]) / q0
    if m <= 0.0:
        raise PreconditionError("tail coefficients vanish on every exit target")
    x = q0 * spec.theta
    h = 1.0 + (math.exp(-x) / -math.expm1(-x) / m) * a
    h[0] = 1.0
    # harmonicity of a under the killed generator (a_0 = 0), escape row set aside
    resid = (spec.rates @ a - spec.exit_rates * a)[1:]
    keep = np.ones(spec.n_states - 1, dtype=bool)
    if spec.escape_state is not None:
        keep[spec.escape_state - 1] = False
    worst = float(np.max(np.abs(resid[keep]))) if keep.any() else 0.0
    return _h_transform(spec, "subexp-weak", h, 0.0, kill_deficit=True,
                        honest=worst <= 1e-9 * float(np.max(a)), harmonic_residual=worst)


def conditioned_to_json(cond: ConditionedChain) -> str:
    """Serialize a ConditionedChain to its JSON wire format."""
    n = cond.spec.n_states
    pos = cond.rates > 0.0
    pos[0] = pos[:, 0] = False
    np.fill_diagonal(pos, False)
    i, j = np.nonzero(pos)  # row-major, the order of a walk over every entry
    triples = [list(t) for t in zip(i.tolist(), j.tolist(), cond.rates[i, j].tolist())]
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
    if cond.kind == "vague":
        doc["hazard"] = {
            "type": "theorem36",
            "q0": cond.spec.q0,
            "theta": cond.spec.theta,
        }
    kills = [[i, cond.interior_kill[i]] for i in range(n) if cond.interior_kill[i] > 0.0]
    if kills:
        doc["interior_kill"] = kills
    return json.dumps(doc, indent=2)
