"""Linear algebra for killed chains: solves, Perron decay rates, semigroup action.

The killed generator is the rate matrix restricted to states away from the
origin; killing happens on every jump into the origin (and, for truncations,
on reaching the escape boundary).  Everything here is dense; the statespaces
this package targets are at most a few hundred states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, matrix_balance

from .chain import ChainSpec
from .errors import IterationError, NumericError, PreconditionError, SingularMatrixError

__all__ = [
    "KilledGenerator",
    "expm_action",
    "killed_generator",
    "perron_decay",
    "solve_linear",
]


@dataclass(frozen=True)
class KilledGenerator:
    """Substochastic generator over a subset of states.

    ``matrix`` has nonnegative off-diagonal entries, diagonal ``-q_i``, and
    every row sums to at most zero with at least one strict leak.  ``states``
    records which original state each row/column refers to.
    """

    matrix: np.ndarray
    states: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "states", tuple(int(s) for s in self.states))
        if m.shape[0] != m.shape[1] or m.shape[0] != len(self.states):
            raise PreconditionError("killed generator shape does not match its state labels")
        if m.size:
            off = m - np.diag(np.diag(m))
            if np.any(off < 0.0):
                raise PreconditionError("killed generator has a negative off-diagonal rate")
            row = m.sum(axis=1)
            if np.any(row > 1e-12):
                raise PreconditionError("killed generator has a row with positive sum")
            if not np.any(row < -1e-12):
                raise PreconditionError("killed generator is conservative: nothing is ever killed")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def killed_generator(spec: ChainSpec, drop_escape: bool = False) -> KilledGenerator:
    """Generator of the chain killed on hitting the origin.

    With ``drop_escape`` the escape state of a truncation is removed as well,
    so reaching the boundary counts as leaving forever.  The default keeps the
    literal finite chain, reflecting boundary included.
    """
    keep = [i for i in spec.interior_states()]
    if drop_escape and spec.escape_state is not None:
        keep = [i for i in keep if i != spec.escape_state]
    if not keep:
        raise PreconditionError("the killed chain has no states")
    idx = np.asarray(keep)
    m = spec.rates[np.ix_(idx, idx)].astype(float)
    np.fill_diagonal(m, np.diag(m) - spec.exit_rates[idx])
    return KilledGenerator(matrix=m, states=tuple(keep))


def solve_linear(matrix, rhs) -> np.ndarray:
    """Solve a dense linear system by LAPACK LU with partial pivoting.

    Raises :class:`SingularMatrixError`, carrying the offending pivot
    magnitude, when a diagonal entry of U falls below working precision.  For
    well conditioned systems the residual satisfies
    ``max|A x - b| <= 1e-10 * (1 + max|b|)``.
    """
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise PreconditionError("solve_linear needs a square matrix and a matching rhs")
    if n == 0:
        return b.copy()
    tiny = n * np.finfo(float).eps * max(np.abs(a).max(), 1.0)
    with warnings.catch_warnings():
        # an exactly zero pivot is reported below as SingularMatrixError
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diag(lu))
    small = np.flatnonzero(pivots <= tiny)
    if small.size:
        k = int(small[0])
        raise SingularMatrixError(pivot=pivots[k], column=k)
    return lu_solve((lu, piv), b, overwrite_b=True, check_finite=False)


def _reversible_scaled(a: np.ndarray):
    """Symmetrize by the detailed-balance similarity, when one exists.

    A chain with drift is similar to a symmetric matrix only through a
    diagonal scaling graded like ``ratio**n``; on the raw matrix the
    pseudospectrum balloons and shifted solves go numerically singular far
    from any eigenvalue.  Working the scaling in log space, entry ``(i, j)``
    of the result is ``sqrt(a_ij * a_ji)``, so nothing overflows no matter
    how long the chain is.  Returns None when the jump graph is not
    reversible-consistent (one-way edges, or a cycle whose rate products
    disagree); norm balancing is the fallback then.
    """
    n = a.shape[0]
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    sup = off != 0.0
    if not np.array_equal(sup, sup.T):
        return None
    half_log = np.zeros_like(a)
    half_log[sup] = 0.5 * np.log(np.abs(off[sup]))
    ld = np.full(n, np.nan)
    for root in range(n):
        if not np.isnan(ld[root]):
            continue
        ld[root] = 0.0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in np.nonzero(sup[i])[0]:
                step = half_log[i, j] - half_log[j, i]
                if np.isnan(ld[j]):
                    ld[j] = ld[i] + step
                    stack.append(int(j))
                elif abs(ld[j] - ld[i] - step) > 1e-8 * (1.0 + abs(ld[i]) + abs(ld[j])):
                    return None
    return a * np.exp(ld[:, None] - ld[None, :])


def perron_decay(
    gen: KilledGenerator,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> float:
    """Decay rate alpha of a killed chain: the negated dominant eigenvalue.

    Conditions ``A = -Q`` first (detailed-balance symmetrization when the
    jump graph allows it, norm balancing otherwise), then runs inverse-power
    iteration with shifts taken from the lower Collatz-Wielandt bound, which
    keeps every shifted matrix a nonsingular M-matrix and therefore keeps the
    iterate strictly positive.  Converges when the eigenvalue increment drops
    below ``tol`` and the sandwich between the two Collatz-Wielandt bounds
    closes; the final eigen-residual is held to 1e-9.
    """
    n = gen.matrix.shape[0]
    if n == 0:
        raise PreconditionError("perron_decay needs a nonempty killed generator")
    if n == 1:
        return float(-gen.matrix[0, 0])
    a = _reversible_scaled(-gen.matrix)
    if a is None:
        a = matrix_balance(-gen.matrix, permute=False, separate=False)[0]
    c = float(np.max(np.diag(a)))
    bmat = c * np.eye(n) - a  # nonnegative
    x = np.full(n, 1.0 / n)
    alpha = np.nan
    eye = np.eye(n)
    for _ in range(max_iter):
        bx = bmat @ x
        # entries squashed onto the underflow floor belong to decayed
        # directions and carry no eigenvalue information
        live = x > x.max() * 1e-250
        ratios = bx[live] / x[live]
        lo = c - float(ratios.max())
        hi = c - float(ratios.min())
        est = 0.5 * (lo + hi)
        closed = hi - lo <= max(tol, 1e-11 * max(1.0, abs(est)))
        stalled = np.isfinite(alpha) and abs(est - alpha) <= tol * max(1.0, abs(est))
        alpha = est
        if closed or stalled:
            resid = float(np.max(np.abs(a @ x - alpha * x))) / float(np.max(np.abs(x)))
            if resid <= 1e-9 * max(1.0, abs(alpha)):
                return float(alpha)
            if closed and stalled:
                raise IterationError(
                    f"perron_decay stalled with eigen-residual {resid:.3e}", residual=resid
                )
        shift = max(lo, 0.0) * (1.0 - 1e-12)
        y = None
        for _retry in range(4):
            try:
                y = solve_linear(a - shift * eye, x)
                break
            except SingularMatrixError:
                # the shift sits on an eigenvalue to working precision; every
                # eigenvalue has real part >= alpha >= shift, so alpha is it
                if hi - lo <= 1e-6 * max(1.0, abs(est)):
                    return float(shift)
                shift -= 1e-9 * max(1.0, abs(shift))
        if y is None:
            raise IterationError(
                "perron_decay hit a singular shifted solve it could not back away from",
                residual=None,
            )
        y = np.abs(y)
        s = float(y.max())
        if not np.isfinite(s) or s == 0.0:
            raise IterationError("perron_decay produced a degenerate iterate", residual=None)
        x = np.maximum(y / s, 1e-300)
    raise IterationError(f"perron_decay did not converge in {max_iter} iterations", residual=None)


def expm_action(gen: KilledGenerator, v, t: float, tol: float = 1e-10) -> np.ndarray:
    """Apply the killed semigroup: compute ``exp(Q t) v`` by uniformization.

    Works columnwise when ``v`` is a matrix.  The Poisson series is truncated
    once its remaining mass is below ``tol`` (giving sup-norm error at most
    ``tol * max|v|``); long horizons are split into steps so the series never
    needs more than a few hundred terms.  ``t * max(q_i) > 1e4`` is refused as
    an overflow guard.
    """
    q = gen.matrix
    w = np.array(v, dtype=float)
    if t < 0.0:
        raise PreconditionError("expm_action needs t >= 0")
    if t == 0.0 or w.size == 0:
        return w
    lam = float(np.max(-np.diag(q)))
    if lam <= 0.0:
        return w
    if lam * t > 1e4:
        raise NumericError(f"expm_action overflow guard: t * max(q_i) = {lam * t:.3e} > 1e4")
    steps = max(1, int(np.ceil(lam * t / 50.0)))
    h = t / steps
    p = np.eye(q.shape[0]) + q / lam
    step_tol = tol / steps
    mu = lam * h
    for _ in range(steps):
        term = np.exp(-mu)
        coeff = term
        acc = coeff * w
        y = w
        m = 0
        cum = coeff
        while cum < 1.0 - step_tol:
            m += 1
            y = p @ y
            coeff *= mu / m
            acc += coeff * y
            cum += coeff
            if m > 10 * (mu + 50):
                raise NumericError("expm_action series failed to converge")
        w = acc
    return w
