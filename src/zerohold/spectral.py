"""Linear algebra for killed chains: M-matrix solves, Perron decay rates, semigroup action.

The killed chain is the rate matrix restricted to states away from the
origin, killed on every jump into the origin.  Its solves run on
``ChainSpec.killed_block``, with a truncation's escape state removed as well;
the semigroup (:func:`expm_action`) runs on the literal chain, escape state
kept.  Every killed-chain solve (the hitting transforms, the reach
probabilities, the Perron shifts) is a Z-matrix ``diag(d) - B`` with
``B >= 0``, factored by :func:`mmatrix_factor` without pivoting.  On an
M-matrix that is componentwise accurate where partial pivoting is not
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
sec. 9.6).  A tridiagonal ``B`` costs O(n) by recurrences on its three bands;
any other ``B`` is one LAPACK ``getrf`` call, O(n^3), on a scaled transpose
on which partial pivoting provably moves no row (:func:`_dense_lu`).  The
recurrences make ``getrf``'s operations in its order, so both give the same
bits on a tridiagonal matrix.  The Perron decay rate takes the same diagonal
and ``B`` and is found from shifted solves alone, by inverse iteration
(:func:`perron_decay`).  The exponential of a Metzler matrix, for the
semigroup and the renewal steps, is a Taylor series with scaling and squaring
in numpy (:func:`metzler_exp`).
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .errors import IterationError, NumericError, PreconditionError, SingularMatrixError

if TYPE_CHECKING:  # chain imports this module for band_form
    from .chain import ChainSpec

__all__ = ["expm_action", "perron_decay", "solve_linear"]

# perron_decay's stopping increment and iteration cap, the former relative to the largest exit rate
PERRON_TOL = 1e-12
_PERRON_MAX_ITER = 10_000
# metzler_exp sums its Taylor series directly up to this 1-norm and halves a
# larger argument down to it.  Term k is then at most 8^k / k! in the 1-norm,
# 5e-32 at the cap, against a sum of 1-norm at least e^-8 on a Metzler matrix
_EXP_REACH = 8.0
_EXP_TERMS = 64
# _dense_lu's least power-of-two row scaling: rates times 2^-960 stay normal down to rates of 2^-62
_SCALE_FLOOR = -960


def solve_linear(matrix, rhs) -> np.ndarray:
    """Solve a dense linear system by LAPACK LU with partial pivoting.

    Raises :class:`SingularMatrixError`, carrying the offending pivot
    magnitude, when a diagonal entry of U falls below working precision.  For
    well conditioned systems the residual satisfies
    ``max|A x - b| <= 1e-10 * (1 + max|b|)``.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise PreconditionError("solve_linear needs a square matrix and a matching rhs")
    if n == 0:
        return b.copy()
    tiny = n * np.finfo(float).eps * np.abs(a).max()
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


def band_form(off):
    """The square array ``off`` as :func:`mmatrix_factor` takes it: its lower and upper
    bands as lists when it is tridiagonal, else itself.  The test reads every entry,
    so a caller that factors one pattern at many shifts makes it once."""
    if np.count_nonzero(off) > sum(np.count_nonzero(np.diagonal(off, k)) for k in (-1, 0, 1)):
        return off
    return np.diagonal(off, -1).tolist(), np.diagonal(off, 1).tolist()


def mmatrix_factor(diag, off):
    """Factors of the Z-matrix ``M = diag(diag) - off`` by elimination without pivoting.

    ``off`` is a nonnegative square array, or its bands, as :func:`band_form`
    gives it; its diagonal is not used, and an array may be a view of a rate
    matrix: it is only read.  Returns None when a pivot is at or below ``n eps
    max|M|``, at any rate scale: positive pivots certify that ``M`` is a
    nonsingular M-matrix.  Bands run as recurrences, in Python floats so that an
    overflow gives inf and no warning, with the same operations in the same
    order as LAPACK's ``getrf`` on ``M^T`` (:func:`_dense_lu`) makes on the
    nonzero entries: reciprocal pivots times the upper band give the
    multipliers.
    """
    d = np.asarray(diag, dtype=float)
    n = d.shape[0]
    floor = n * np.finfo(float).eps
    if isinstance(off, np.ndarray):
        m = -off
        np.fill_diagonal(m, d)
        return _dense_lu(m, floor * np.abs(m).max())
    lower, upper = off
    tiny = floor * max(np.abs(d).max(), max(lower, default=0.0), max(upper, default=0.0))
    d = d.tolist()
    mult, pivots = [], []
    pivot = d[0]
    for k in range(n):
        if k:
            mult.append(upper[k - 1] * (1.0 / pivot))
            pivot = d[k] - mult[-1] * lower[k - 1]
        if pivot <= tiny:
            return None
        pivots.append(pivot)
    return mult, pivots, lower


def _dense_lu(m: np.ndarray, tiny: float) -> tuple | None:
    """Factors of the Z-matrix ``m`` by LAPACK ``getrf``, unpivoted in effect; None on a pivot at or below ``tiny``.

    ``getrf`` runs on ``diag(v) m^T``, and its factors are accepted only if
    its pivot vector is the identity: they are then those of elimination
    without pivoting.  ``m^T`` has the leading principal minors of ``m``, so
    pivot k of ``m`` is ``U_kk / v_k``.  The first try takes ``v = 1``.  If a
    row moves there, ``w = m^-1 1`` from those pivoted factors is positive
    when ``m`` is a nonsingular M-matrix, and ``m w = 1`` makes ``diag(w)
    m^T`` column diagonally dominant, as is each of its Schur complements, so
    partial pivoting would move no row of it (Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 3.4.10).  ``v`` is ``w`` rounded to
    powers of two and graded by a factor 4 per row: every entry a pivot
    search compares is then below half the diagonal, and the scaling is
    exact, so the factors are, bit for bit, those of elimination without
    pivoting on ``m^T`` with its rows scaled.  Where that grading would leave
    the exponent range, ``v = w``.
    """
    from scipy.linalg.lapack import dgetrf, dgetrs

    n = m.shape[0]
    order = np.arange(n)
    v = np.ones(n)
    lu, piv, _ = dgetrf(m.T)
    if not np.array_equal(piv, order):
        v, _ = dgetrs(lu, piv, v, trans=1)
        if not 0.0 < v.min() <= v.max() < math.inf:
            return None
        exponent = np.frexp(v)[1] - 2 * order
        exponent -= exponent.max()
        if exponent.min() > _SCALE_FLOOR:
            v = np.ldexp(1.0, exponent)
        lu, piv, _ = dgetrf((m * v).T, overwrite_a=True)
        if not np.array_equal(piv, order):
            return None
    if not (np.diagonal(lu) / v).min() > tiny:
        return None
    return lu, piv, v


def mmatrix_solve(factors, rhs) -> np.ndarray:
    """Solve ``M x = rhs`` with the factors of :func:`mmatrix_factor`: arrays ``(lu, piv, v)``
    of ``diag(v) M^T`` from :func:`_dense_lu`, or the lists of the band recurrences."""
    if isinstance(factors[0], np.ndarray):
        from scipy.linalg.lapack import dgetrs

        lu, piv, v = factors
        y, _ = dgetrs(lu, piv, rhs, trans=1)
        with np.errstate(over="ignore"):  # an overflow gives inf, as on the bands
            return v * y
    mult, pivots, lower = factors
    x = np.asarray(rhs, dtype=float).tolist()
    n = len(x)
    x[0] /= pivots[0]
    for k in range(1, n):
        x[k] = (x[k] + lower[k - 1] * x[k - 1]) / pivots[k]
    for k in range(n - 2, -1, -1):
        x[k] += mult[k] * x[k + 1]
    return np.array(x)


def perron_decay(diag, off, factors=None) -> float:
    """Decay rate alpha of a killed chain: the Perron root of ``A = diag(diag) - off``.

    ``diag`` and ``off`` are M(0)'s, as :func:`mmatrix_factor` takes them.  Bands
    are replaced by ``sqrt(lower * upper)``, which keeps a tridiagonal spectrum
    and drops a drift's grading; a dense block runs as it stands, and its
    first shift, 0, uses M(0)'s ``factors`` when the caller holds them.  Inverse
    iteration solves ``(A - s) y = x`` at shifts ``s`` from the lower bound, so
    every shifted matrix is a nonsingular M-matrix and ``y > 0``; a nonpositive
    pivot certifies that ``s`` has reached alpha.  Each solve gives the
    Collatz-Wielandt bounds ``alpha - s`` in ``[min x/y, max x/y]`` and, from ``A
    y = x + s y``, the eigen-residual ``x - (alpha - s) y``.  Converges when the
    increment drops below ``PERRON_TOL`` or the bounds close, with the residual
    held to 1e-9.  Every tolerance is a multiple of the largest exit rate, so
    alpha(c Q) = c alpha(Q) to the same relative accuracy at any scale c > 0.
    """
    d = np.asarray(diag, dtype=float)
    n = d.shape[0]
    if n == 0:
        raise PreconditionError("perron_decay needs a nonempty killed generator")
    if n == 1:
        return float(d[0])
    if not isinstance(off, np.ndarray):
        mean = [math.sqrt(down) * math.sqrt(up) for down, up in zip(*off)]
        off, factors = (mean, mean), None
    c = float(d.max())
    x = np.full(n, 1.0 / n)
    s = 0.0
    alpha = np.nan
    for _ in range(_PERRON_MAX_ITER):
        if factors is None or s:
            factors = mmatrix_factor(d - s, off)
        if factors is None:
            # A - s I is no nonsingular M-matrix, so alpha <= s to working
            # precision, while s <= alpha
            return float(s)
        y = np.abs(mmatrix_solve(factors, x))
        m = float(y.max())
        if not np.isfinite(m) or m == 0.0:
            raise IterationError("perron_decay produced a degenerate iterate", residual=None)
        # entries squashed onto the underflow floor belong to decayed
        # directions and carry no eigenvalue information
        live = y > m * 1e-250
        ratios = x[live] / y[live]
        lo = s + float(ratios.min())
        hi = s + float(ratios.max())
        est = 0.5 * (lo + hi)
        closed = hi - lo <= max(PERRON_TOL * c, 1e-11 * abs(est))
        stalled = np.isfinite(alpha) and abs(est - alpha) <= PERRON_TOL * c
        alpha = est
        if closed or stalled:
            resid = float(np.max(np.abs(x - (alpha - s) * y))) / m
            if resid <= 1e-9 * c:
                return float(alpha)
            if closed and stalled:
                raise IterationError(
                    f"perron_decay stalled with eigen-residual {resid:.3e}", residual=resid
                )
        s = max(lo, 0.0) * (1.0 - 1e-12)
        x = np.maximum(y / m, 1e-300)
    raise IterationError(f"perron_decay did not converge in {_PERRON_MAX_ITER} iterations", residual=None)


def _norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max(initial=0.0))


def metzler_exp(a) -> np.ndarray:
    """``exp(a)`` of a Metzler matrix, clipped at zero: the exact exponential is nonnegative.

    A Taylor series by matrix products, summed until a term is below 1e-18 of
    the sum in the 1-norm, after halving ``a`` ``s`` times until its 1-norm is
    at most ``_EXP_REACH``; the sum is then squared ``s`` times (scaling and
    squaring, Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005).  Powers of an
    upper-triangular ``a`` keep its diagonal exactly, so a zero there gives
    exactly 1.  A non-finite 1-norm raises :class:`NumericError`.
    """
    a = np.asarray(a, dtype=float)
    norm = _norm1(a)
    if not np.isfinite(norm):
        raise NumericError("matrix exponential of a matrix with a non-finite norm")
    halvings = math.ceil(math.log2(norm / _EXP_REACH)) if norm > _EXP_REACH else 0
    a = np.ldexp(a, -halvings)
    out = np.eye(len(a)) + a
    term = a
    for k in range(2, _EXP_TERMS + 1):
        if _norm1(term) <= 1e-18 * _norm1(out):
            break
        term = term @ a / k
        out += term
    for _ in range(halvings):
        out = out @ out
    return np.maximum(out, 0.0)


def expm_action(spec: ChainSpec, v, t: float) -> np.ndarray:
    """Apply the killed semigroup: ``exp(Q t) v``, columnwise when ``v`` is a matrix.

    ``Q`` is the chain on states ``1..n-1``, every jump into the origin killed
    and an escape state kept; ``exp(Q t)`` comes from :func:`metzler_exp`.
    """
    if t < 0.0:
        raise PreconditionError("expm_action needs t >= 0")
    if spec.n_states < 2:
        raise PreconditionError("expm_action needs a state away from the origin")
    q = spec.rates[1:, 1:] - np.diag(spec.exit_rates[1:])
    return metzler_exp(q * t) @ np.asarray(v, dtype=float)
