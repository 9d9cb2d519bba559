"""Chain specifications: a rate matrix with a distinguished origin state.

A :class:`ChainSpec` describes a finite irreducible continuous-time chain on
states ``{0, .., n-1}`` together with a waiting threshold ``theta``.  State 0
is the origin; the analysis elsewhere in the package concerns the first time
the chain holds at the origin for ``theta`` units of time in one stretch.

Two representation details go beyond a plain rate matrix:

* ``rates[0, 0]`` may be positive.  It encodes a jump from the origin straight
  back to the origin (the holding clock restarts, the visible state does not).
  This is how a bare Poisson stream of events is written as a chain.  Diagonal
  entries are forbidden everywhere else.
* ``escape_state`` optionally marks the top state of a truncated infinite
  chain.  Hitting analyses treat a visit to that state as escape to infinity
  (the walk never returns), which is what makes a finite truncation stand in
  for a transient or heavy-tailed infinite chain.  Simulation and the renewal
  solver always use the literal finite chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ParseError, SpecValidationError

__all__ = [
    "AugmentedState",
    "ChainSpec",
    "ValidationReport",
    "build_birth_death",
    "emit_spec",
    "parse_spec",
    "validate",
]


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Immutable chain specification.

    Parameters
    ----------
    n_states : int
        Number of states, origin included.
    rates : array_like, shape (n_states, n_states)
        Off-diagonal jump rates.  ``rates[0, 0]`` may be positive (direct
        return to the origin); all other diagonal entries must be zero.
    wait_threshold : float, default 1.0
        Holding span theta at the origin that defines tau.
    escape_state : int, optional
        State treated as "escaped to infinity" by hitting analyses.  Used for
        truncations of infinite chains; leave ``None`` for genuine finite
        chains.
    """

    n_states: int
    rates: np.ndarray
    wait_threshold: float = 1.0
    escape_state: int | None = None

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float).copy()
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "wait_threshold", float(self.wait_threshold))
        if self.escape_state is not None:
            object.__setattr__(self, "escape_state", int(self.escape_state))

    # exit rate q_i of every state; the origin row includes a direct-return entry
    @property
    def exit_rates(self) -> np.ndarray:
        return self.rates.sum(axis=1)

    @property
    def q0(self) -> float:
        return float(self.rates[0].sum())

    @property
    def theta(self) -> float:
        return self.wait_threshold

    def interior_states(self) -> range:
        """States other than the origin (the killed chain's statespace)."""
        return range(1, self.n_states)

    def __eq__(self, other):
        if not isinstance(other, ChainSpec):
            return NotImplemented
        return (
            self.n_states == other.n_states
            and self.wait_threshold == other.wait_threshold
            and self.escape_state == other.escape_state
            and np.array_equal(self.rates, other.rates)
        )

    def __repr__(self):
        esc = f", escape_state={self.escape_state}" if self.escape_state is not None else ""
        return f"ChainSpec(n_states={self.n_states}, wait_threshold={self.wait_threshold}{esc})"


@dataclass(frozen=True)
class AugmentedState:
    """A point of the augmented statespace: interior state, or origin plus clock.

    ``state == 0`` carries the elapsed holding time ``clock`` in
    ``[0, wait_threshold)``; interior states carry no clock.
    """

    state: int
    clock: float = 0.0

    def __post_init__(self):
        if self.state < 0:
            raise ValueError("state index must be nonnegative")
        if self.state != 0 and self.clock != 0.0:
            raise ValueError("only the origin carries a holding clock")
        if self.clock < 0.0:
            raise ValueError("holding clock must be nonnegative")

    @classmethod
    def interior(cls, i: int) -> "AugmentedState":
        if i == 0:
            raise ValueError("interior state must not be the origin")
        return cls(int(i), 0.0)

    @classmethod
    def at_origin(cls, clock: float = 0.0) -> "AugmentedState":
        return cls(0, float(clock))

    @property
    def is_origin(self) -> bool:
        return self.state == 0


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: empty ``violations`` means the spec is valid."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self):
        if self.violations:
            raise SpecValidationError(self.violations)


def _strongly_connected(adj: np.ndarray) -> bool:
    if adj.shape[0] <= 1:
        return True
    n_comp, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
    return n_comp == 1


def validate(spec: ChainSpec) -> ValidationReport:
    """Check a chain spec against the structural rules.

    Violations are tagged ``negative rate``, ``self rate``, ``absorbing
    state``, ``zero q_0``, ``not strongly connected`` or ``escape state``.
    """
    v = []
    n = spec.n_states
    r = spec.rates
    if n < 1:
        v.append(("absorbing state", "chain needs at least the origin state"))
        return ValidationReport(tuple(v))
    if r.shape != (n, n):
        v.append(("negative rate", f"rates must be {n}x{n}, got {r.shape}"))
        return ValidationReport(tuple(v))
    if not np.all(np.isfinite(r)):
        v.append(("negative rate", "rates must be finite"))
    if np.any(r < 0.0):
        bad = np.argwhere(r < 0.0)[0]
        v.append(("negative rate", f"rate[{bad[0]},{bad[1]}] is negative"))
    diag = np.diag(r)
    if np.any(diag[1:] != 0.0):
        i = 1 + int(np.argmax(diag[1:] != 0.0))
        v.append(("self rate", f"state {i} has a self rate; only the origin may return to itself"))
    q = r.sum(axis=1)
    if q[0] <= 0.0:
        v.append(("zero q_0", "the origin has no positive exit rate"))
    for i in range(1, n):
        if q[i] <= 0.0:
            v.append(("absorbing state", f"state {i} has no positive exit rate"))
    if not v:
        adj = (r > 0.0).astype(np.int8)
        np.fill_diagonal(adj, 0)
        if not _strongly_connected(adj):
            v.append(("not strongly connected", "the chain graph is not strongly connected"))
        elif n > 2 and not _strongly_connected(adj[1:, 1:]):
            v.append(("not strongly connected", "the killed chain on states 1.. is not strongly connected"))
    if spec.escape_state is not None and not (1 <= spec.escape_state < n):
        v.append(("escape state", f"escape_state {spec.escape_state} is not an interior state"))
    return ValidationReport(tuple(v))


def parse_spec(text: str) -> ChainSpec:
    """Parse a JSON chain-spec document and validate the result.

    The document holds ``n_states`` (integer), ``rates`` (array of
    ``[i, j, rate]`` triples; absent entries are zero), an optional
    ``wait_threshold`` (default 1.0) and an optional ``escape_state``.

    Raises
    ------
    ParseError
        On malformed JSON or malformed fields, with the location.
    SpecValidationError
        When the parsed chain violates validity rules.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    unknown = set(doc) - {"n_states", "rates", "wait_threshold", "escape_state"}
    if unknown:
        raise ParseError(f"unknown field(s): {', '.join(sorted(unknown))}")
    if "n_states" not in doc:
        raise ParseError("field 'n_states' is missing")
    n = doc["n_states"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("field 'n_states' must be a positive integer")
    triples = doc.get("rates")
    if not isinstance(triples, list):
        raise ParseError("field 'rates' must be an array of [i, j, rate] triples")
    rates = np.zeros((n, n))
    seen = set()
    for k, triple in enumerate(triples):
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ParseError(f"rates[{k}] is not an [i, j, rate] triple")
        i, j, rate = triple
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise ParseError(f"rates[{k}]: state indices must be integers")
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"rates[{k}]: state index out of range for n_states={n}")
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ParseError(f"rates[{k}]: rate must be a number")
        if i == j and i != 0:
            raise ParseError(f"rates[{k}]: self rate at state {i}; only [0, 0, r] is allowed")
        if (i, j) in seen:
            raise ParseError(f"rates[{k}]: duplicate entry for ({i}, {j})")
        seen.add((i, j))
        rates[i, j] = float(rate)
    theta = doc.get("wait_threshold", 1.0)
    if not isinstance(theta, (int, float)) or isinstance(theta, bool) or not theta > 0.0:
        raise ParseError("field 'wait_threshold' must be a positive number")
    esc = doc.get("escape_state")
    if esc is not None and (not isinstance(esc, int) or isinstance(esc, bool)):
        raise ParseError("field 'escape_state' must be an integer state index")
    spec = ChainSpec(n_states=n, rates=rates, wait_threshold=float(theta), escape_state=esc)
    validate(spec).raise_if_invalid()
    return spec


def emit_spec(spec: ChainSpec) -> str:
    """Serialize a spec so that ``parse_spec(emit_spec(s)) == s`` bit for bit."""
    triples = [
        [int(i), int(j), float(spec.rates[i, j])]
        for i in range(spec.n_states)
        for j in range(spec.n_states)
        if spec.rates[i, j] != 0.0
    ]
    doc = {"n_states": spec.n_states, "rates": triples, "wait_threshold": spec.wait_threshold}
    if spec.escape_state is not None:
        doc["escape_state"] = spec.escape_state
    return json.dumps(doc, indent=2)


def _per_state(value, i: int, name: str) -> float:
    if np.isscalar(value):
        out = float(value)
    else:
        seq = value
        if len(seq) < i:
            raise SpecValidationError([(name, f"needs an entry for state {i}")])
        out = float(seq[i - 1])
    return out


def build_birth_death(
    b,
    d,
    n: int,
    q0_dist: Mapping[int, float],
    wait_threshold: float = 1.0,
) -> ChainSpec:
    """Build a truncated birth-death walk with the origin attached.

    States are ``{0, 1, .., n}``.  Interior state ``i`` jumps up at rate
    ``b_i`` (for ``i < n``) and down at rate ``d_i``; the top state ``n`` is
    reflecting, keeping the truncated chain conservative.  The origin jumps to
    state ``j`` at rate ``q0_dist[j]``; the support must lie in ``{1, .., n-1}``
    so the exit never lands on the truncation boundary.  The boundary is
    recorded as ``escape_state`` so hitting analyses read the truncation as a
    window onto the infinite walk.

    Parameters
    ----------
    b, d : float or sequence
        Up and down rates.  A sequence is indexed by state: element ``i - 1``
        is the rate at state ``i``.
    n : int
        Truncation level (the top state index), at least 2.
    q0_dist : mapping {state: rate}
        Positive exit rates out of the origin.
    """
    if n < 2:
        raise SpecValidationError([("absorbing state", "truncation level n must be at least 2")])
    rates = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        di = _per_state(d, i, "death rate")
        if not di > 0.0:
            raise SpecValidationError([("negative rate", f"death rate at state {i} must be positive")])
        rates[i, i - 1] = di
        if i < n:
            bi = _per_state(b, i, "birth rate")
            if not bi > 0.0:
                raise SpecValidationError([("negative rate", f"birth rate at state {i} must be positive")])
            rates[i, i + 1] = bi
    if not q0_dist:
        raise SpecValidationError([("zero q_0", "q0_dist must contain at least one exit rate")])
    for j, w in q0_dist.items():
        j = int(j)
        if not (1 <= j <= n - 1):
            raise SpecValidationError([("escape state", f"origin exit target {j} must lie in 1..{n - 1}")])
        if not float(w) > 0.0:
            raise SpecValidationError([("negative rate", f"origin exit rate to {j} must be positive")])
        rates[0, j] = float(w)
    spec = ChainSpec(n_states=n + 1, rates=rates, wait_threshold=wait_threshold, escape_state=n)
    validate(spec).raise_if_invalid()
    return spec
