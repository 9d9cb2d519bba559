"""Output checks, computed apart from zerohold.

Every reference value comes from the chain's rate matrix through numpy,
scipy.linalg, scipy.optimize and closed forms; nothing here imports zerohold
or compares against stored program output.  ``check(op, stdout, stderr)``
returns a list of failure messages, empty when the output is correct.

The return-cycle transform is rebuilt from its definition,

    I(lam) = J(theta, lam - q0) * (q_00 + sum_j q_0j F_j(lam)),
    J(x, a) = (e^{a x} - 1) / a,

with the hitting moments F from ``numpy.linalg.solve`` on
``(diag(q_i) - lam - offdiag(q_ij)) F = q_{.0}`` over the interior (the
escape state of a truncation removed), and I' from the same system with
right-hand side F.  phi is the ``brentq`` root of I - 1 and
kappa = e^{(phi - q0) theta} / (phi I'(phi)).
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvals
from scipy.optimize import brentq
from scipy.special import lambertw

REL_TOL = 1e-9
ABS_TOL = 1e-12
# solve_phi documents an absolute bisection tolerance of 1e-12.  Quantities
# built from phi may carry the error that tolerance induces: on heavy40
# (phi ~ 5e-5, I'' / I' ~ 6e5) it is ~2e-7 of kappa.
PHI_ABS = 1e-12
# the renewal march is second order: the early shape is held to dt^2, and
# the curve's transform at LAPLACE_ARGS to LAPLACE_TOL of the identity
HOLD_DT2 = 1.0
LAPLACE_ARGS = (0.5, 2.0)
LAPLACE_TOL = 5e-4
PLATEAU_TOL = 5e-4
# Monte Carlo bands
N_SE = 4.0
TAILS_REL = 0.10
CHI2_P_MIN = 1e-3
SUBEXP_RATIO_MAX = 2.5


def _j(x: float, a: float) -> float:
    return x if a == 0.0 else math.expm1(a * x) / a


def _j_da(x: float, a: float) -> float:
    if abs(a) < 1e-8:
        return x * x / 2.0
    e = math.exp(a * x)
    return (x * a * e - e + 1.0) / (a * a)


def _active(chain) -> np.ndarray:
    return np.array([i for i in range(1, chain.n) if i != chain.escape], dtype=int)


def _moment_matrix(chain, lam: float) -> np.ndarray:
    idx = _active(chain)
    q = chain.rates.sum(axis=1)
    m = -chain.rates[np.ix_(idx, idx)]
    m[np.diag_indices_from(m)] = q[idx] - lam
    return m


def hitting_moments(chain, lam: float):
    """F(lam) and F'(lam) by state (entry 0 and the escape state zero)."""
    f = np.zeros(chain.n)
    fp = np.zeros(chain.n)
    idx = _active(chain)
    if idx.size:
        m = _moment_matrix(chain, lam)
        f[idx] = np.linalg.solve(m, chain.rates[idx, 0])
        fp[idx] = np.linalg.solve(m, f[idx])
    return f, fp


def transform(chain, lam: float) -> tuple[float, float]:
    """I(lam) and I'(lam) of the return cycle."""
    q0 = chain.rates[0].sum()
    f, fp = hitting_moments(chain, lam)
    s = chain.rates[0, 0] + chain.rates[0, 1:] @ f[1:]
    sp = chain.rates[0, 1:] @ fp[1:]
    a = lam - q0
    return _j(chain.theta, a) * s, _j_da(chain.theta, a) * s + _j(chain.theta, a) * sp


@lru_cache(maxsize=None)
def alpha(chain) -> float:
    """Decay rate of the killed chain: closed form for homogeneous walks, else eigenvalues."""
    idx = _active(chain)
    if not idx.size:
        return math.inf
    if chain.bd is not None:
        b, d, n = chain.bd
        return b + d - 2.0 * math.sqrt(b * d) * math.cos(math.pi / n)
    return float(-np.max(eigvals(-_moment_matrix(chain, 0.0)).real))


@lru_cache(maxsize=None)
def phi_kappa(chain) -> tuple[float, float]:
    """Root of I(lam) = 1 below alpha and the constant kappa."""
    a = alpha(chain)
    if math.isinf(a):
        hi = 1.0
        while transform(chain, hi)[0] < 1.0:
            hi *= 2.0
    else:
        for k in range(2, 15):
            hi = a * (1.0 - 10.0 ** (-k))
            if transform(chain, hi)[0] > 1.0:
                break
        else:
            raise ValueError(f"{chain.name}: I stays below 1 up to alpha")
    phi = brentq(lambda x: transform(chain, x)[0] - 1.0, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    return phi, _kappa_at(chain, phi)


def gamblers_ruin(chain) -> np.ndarray:
    """Never-return probabilities of a homogeneous walk whose top state is the escape."""
    b, d, n = chain.bd
    rho = d / b
    i = np.arange(n + 1, dtype=float)
    return (1.0 - rho**i) / (1.0 - rho**n) if rho < 1.0 else (rho**i - 1.0) / (rho**n - 1.0)


def transient_p0(chain, beta: np.ndarray) -> float:
    q0 = chain.rates[0].sum()
    delta = chain.rates[0] @ beta / q0
    w = -math.expm1(-q0 * chain.theta)
    return w * delta / ((1.0 - w) + w * delta)


def poisson_phi(r: float) -> float:
    """Companion root of x e^{-x} = r e^{-r}, from the Lambert W function."""
    branch = 0 if r > 1.0 else -1
    return float(-lambertw(-r * math.exp(-r), branch).real)


# ---------------------------------------------------------------------------
# comparison helpers


def _close(errs: list, what: str, got, want, rel: float = REL_TOL, absol: float = ABS_TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errs.append(f"{what}: shape {got.shape} != {want.shape}")
        return
    bad = ~(np.abs(got - want) <= absol + rel * np.abs(want))
    if bad.any():
        k = int(np.flatnonzero(bad)[0]) if bad.ndim else 0
        errs.append(f"{what}: {got.ravel()[k]!r} != {want.ravel()[k]!r} (index {k})")


def _close_at_phi(errs: list, what: str, got, chain, fn) -> None:
    """Compare with ``fn(phi)``, allowing what a phi off by PHI_ABS changes in it."""
    phi, _ = phi_kappa(chain)
    want = np.asarray(fn(phi), dtype=float)
    slack = np.maximum(*(np.abs(np.asarray(fn(phi + s * PHI_ABS)) - want) for s in (-1.0, 1.0)))
    _close(errs, what, got, want, absol=ABS_TOL + slack)


def _kappa_at(chain, phi: float) -> float:
    q0 = chain.rates[0].sum()
    return math.exp((phi - q0) * chain.theta) / (phi * transform(chain, phi)[1])


def _limit_vector_at(chain, phi: float) -> np.ndarray:
    kappa = _kappa_at(chain, phi)
    f, _ = hitting_moments(chain, phi)
    f[0] = 1.0
    return kappa * f


def laplace_survival(chain, lam: float, start_state: int = 0, start_clock: float = 0.0) -> float:
    """Laplace transform of the survival curve at ``lam > 0``, from the renewal identity.

    Uses the literal finite chain (an escape state is an ordinary state
    here, as in the renewal solver).  With G = J(theta - u, -lam - q0),
    F_j = E_j[e^{-lam tau_0}] and r = q_00 + sum_j q_0j F_j:

        s^_u = G (1 + sum_j q_0j (1 - F_j) / lam + r s^_0),
        s^_0 = J(theta, -lam - q0) (1 + sum_j q_0j (1 - F_j) / lam) / (1 - J(theta, -lam - q0) r),
        s^_i = (1 - F_i) / lam + F_i s^_0   for an interior start i.
    """
    q = chain.rates.sum(axis=1)
    q0 = q[0]
    f = np.zeros(chain.n)
    if chain.n > 1:
        m = -chain.rates[1:, 1:].copy()
        m[np.diag_indices_from(m)] = q[1:] + lam
        f[1:] = np.linalg.solve(m, chain.rates[1:, 0])
    out = 1.0 + chain.rates[0, 1:] @ (1.0 - f[1:]) / lam
    ret = chain.rates[0, 0] + chain.rates[0, 1:] @ f[1:]
    j0 = _j(chain.theta, -lam - q0)
    fresh = j0 * out / (1.0 - j0 * ret)
    if start_state:
        return (1.0 - f[start_state]) / lam + f[start_state] * fresh
    return _j(chain.theta - start_clock, -lam - q0) * (out + ret * fresh)


def _csv(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    head, body = rows[0], rows[1:]
    return {name: np.array([float(r[k]) for r in body]) for k, name in enumerate(head)}


def _h_rates(errs: list, chain, doc: dict, h: np.ndarray) -> None:
    """Interior rates q_ij h_j / h_i and exit weights q_0j h_j of an h-transform."""
    _close(errs, "h_values", doc["h_values"], h)
    want = {(i, j): chain.rates[i, j] * h[j] / h[i]
            for i in range(1, chain.n) for j in range(1, chain.n) if i != j and chain.rates[i, j] > 0.0}
    got = {(int(i), int(j)): r for i, j, r in doc["interior_rates"]}
    if set(got) != set(want):
        errs.append("interior_rates: wrong set of transitions")
    else:
        keys = sorted(want)
        _close(errs, "interior_rates", [got[k] for k in keys], [want[k] for k in keys])
    w = chain.rates[0] * h
    got_exit = {int(j): p for j, p in doc["exit_probs"]}
    _close(errs, "exit_probs", [got_exit.get(j, 0.0) for j in range(chain.n)], w / w.sum())
    if doc["honest"] is not True:
        errs.append("conditioned chain not reported honest")


# ---------------------------------------------------------------------------
# per-command checks


def check_analyze(op, out: str, err: str) -> list:
    chain, errs = op.chain, []
    doc = json.loads(out)
    beta = gamblers_ruin(chain) if chain.bd is not None else np.zeros(chain.n)
    _close(errs, "beta", doc["beta"]["values"], beta)
    _close(errs, "delta", doc["delta"]["value"], chain.rates[0] @ beta / chain.rates[0].sum())
    a = alpha(chain)
    if math.isfinite(a):
        _close(errs, "alpha_c", doc["alpha_c"]["value"], a)
    p0 = transient_p0(chain, beta)
    if p0 > 1e-6:
        if doc["classification"] != "transient":
            errs.append("classification: expected transient")
        lv = doc["limit_vector"]
        _close(errs, "origin_fresh", lv["origin_fresh"], p0)
        want = beta + (1.0 - beta) * p0
        want[0] = p0
        _close(errs, "limit_vector", lv["values"], want)
        return errs
    if doc["classification"] != "recurrent" or doc.get("regime") != "alpha-positive":
        return errs + [f"classification/regime: {doc['classification']}/{doc.get('regime')}"]
    phi, kappa = phi_kappa(chain)
    if chain.n == 1:
        # the bare Poisson stream: phi has a closed form as well
        _close(errs, "phi (Lambert W)", phi, poisson_phi(chain.rates[0, 0]), rel=1e-12)
    _close(errs, "phi", doc["phi"]["value"], phi, absol=PHI_ABS)
    _close_at_phi(errs, "kappa", doc["kappa"]["value"], chain, lambda x: _kappa_at(chain, x))
    _close_at_phi(errs, "limit_vector", doc["limit_vector"]["values"], chain, lambda x: _limit_vector_at(chain, x))
    return errs


def check_condition_limit(op, out: str, err: str) -> list:
    chain, errs = op.chain, []
    doc = json.loads(out)
    phi, _ = phi_kappa(chain)
    _close(errs, "origin_holding.phi", doc["origin_holding"]["phi"], phi, absol=PHI_ABS)
    h, _ = hitting_moments(chain, phi)
    h[0] = 1.0
    _h_rates(errs, chain, doc, h)
    return errs


def check_condition_subexp(op, out: str, err: str) -> list:
    chain, errs = op.chain, []
    doc = json.loads(out)
    b, d, n = chain.bd
    rho = d / b
    a = (rho ** np.arange(n + 1) - 1.0) / (rho - 1.0)  # harmonic, a_0 = 0, a_1 = 1
    q0 = chain.rates[0].sum()
    m = chain.rates[0] @ a / q0
    h = 1.0 + a / (math.expm1(q0 * chain.theta) * m)
    _h_rates(errs, chain, doc, h)
    return errs


def check_coin(op, out: str, err: str) -> list:
    errs = []
    t = _csv(out)
    n = np.arange(op.ctx["n"] + 1)
    fib = [1, 1]
    while len(fib) < n[-1] + 3:
        fib.append(fib[-1] + fib[-2])
    exact = np.array([fib[k + 1] for k in n], dtype=float) / 2.0**n  # fib[k] = F_{k+1}: F_{n+2} / 2^n
    s = (1.0 + math.sqrt(5.0)) / 4.0
    asym = (1.0 + 1.0 / math.sqrt(5.0)) * s ** (n + 1)
    _close(errs, "n", t["n"], n)
    _close(errs, "exact", t["exact"], exact, rel=1e-11, absol=0.0)
    _close(errs, "asymptote", t["asymptote"], asym, rel=1e-11, absol=0.0)
    _close(errs, "rel_error", t["rel_error"], np.abs(asym - exact) / exact, rel=1e-6, absol=1e-11)
    return errs


def check_poisson(op, out: str, err: str) -> list:
    errs = []
    doc = json.loads(out)
    r = op.ctx["r"]
    phi = poisson_phi(r)
    _close(errs, "phi_r", doc["phi_r"], phi, absol=PHI_ABS)
    _close(errs, "c_r", doc["c_r"], (phi - r) / (r * (phi - 1.0)))
    return errs


def check_renewal(op, out: str, err: str) -> list:
    chain, ctx, errs = op.chain, op.ctx, []
    t = _csv(out)
    tt, s, scaled = t["t"], t["s"], t["scaled_s"]
    dt, t_max, theta = ctx["dt"], ctx["t_max"], chain.theta
    q0 = chain.rates[0].sum()
    n_cells = int(round(t_max / dt))
    _close(errs, "grid", tt, dt * np.arange(n_cells + 1), rel=1e-9, absol=1e-9)
    if errs:
        return errs
    if not (np.all(s >= 0.0) and np.all(s <= 1.0)):
        errs.append("curve leaves [0, 1]")
    if np.any(np.diff(s) > 0.0):
        k = int(np.flatnonzero(np.diff(s) > 0.0)[0])
        errs.append(f"curve increases at t={tt[k + 1]:g}")
    state, clock = ctx.get("start_state", 0), ctx.get("start_clock", 0.0)
    k0 = 0
    if not state:
        # an origin start cannot complete its hold before theta - clock, and
        # completes it exactly then with probability e^{-q0 (theta - clock)}
        k0 = int(round((theta - clock) / dt))
        tol = HOLD_DT2 * dt * dt
        _close(errs, "s before the first hold can end", s[:k0], np.ones(k0), rel=0.0, absol=tol)
        _close(errs, "s where the first hold ends", s[k0], -math.expm1(-q0 * k0 * dt), rel=0.0, absol=tol)
    for lam in LAPLACE_ARGS:
        # trapezoid from the jump node on; exactly 1 before it
        head = -math.expm1(-lam * tt[k0]) / lam
        f = np.exp(-lam * tt[k0:]) * s[k0:]
        got = head + dt * (f.sum() - 0.5 * (f[0] + f[-1]))
        tail = s[-1] * math.exp(-lam * t_max) / lam  # the curve never increases
        _close(errs, f"Laplace transform at {lam:g}", got, laplace_survival(chain, lam, state, clock),
               rel=LAPLACE_TOL, absol=tail)
    phi, kappa = phi_kappa(chain)
    if ctx.get("plateau"):
        f, _ = hitting_moments(chain, phi)
        a = phi - q0
        target = kappa * f[state] if state else kappa * _j(theta - clock, a) / _j(theta, a)
        late = tt >= t_max / 2.0
        _close(errs, "plateau e^{phi t} s(t)", np.exp(phi * tt[late]) * s[late], np.full(late.sum(), target),
               rel=PLATEAU_TOL, absol=0.0)
    _close_at_phi(errs, "scaled_s", scaled, chain, lambda x: np.exp(x * tt) * s)
    return errs


def _survival_band(errs: list, t: dict, want, what: str) -> None:
    dev = np.abs(t["estimate"] - want)
    bad = ~(dev <= N_SE * t["stderr"])
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        errs.append(f"{what}: estimate {t['estimate'][k]} at t={t['t'][k]:g} is "
                    f"{dev[k] / t['stderr'][k]:.2f} SE from {np.broadcast_to(want, dev.shape)[k]:.6g}")


def check_mc_survival(op, out: str, err: str) -> list:
    errs = []
    t = _csv(out)
    phi, kappa = phi_kappa(op.chain)
    if np.any(np.diff(t["estimate"]) > 0.0):
        errs.append("survival estimates increase in t")
    late = t["t"] >= 10.0
    _survival_band(errs, {k: v[late] for k, v in t.items()}, kappa * np.exp(-phi * t["t"][late]), "kappa e^{-phi t}")
    return errs


def check_mc_transient(op, out: str, err: str) -> list:
    errs = []
    t = _csv(out)
    _survival_band(errs, t, transient_p0(op.chain, gamblers_ruin(op.chain)), "closed-form p0")
    return errs


def check_mc_conditioned(op, out: str, err: str) -> list:
    t = _csv(out)
    if np.all(t["estimate"] == 1.0) and np.all(t["stderr"] == 0.0):
        return []
    return ["a limit-conditioned survival estimate is not exactly 1"]


def check_mc_compare(op, out: str, err: str) -> list:
    doc = json.loads(out)
    errs = []
    if not doc["max_diff_in_se"] <= N_SE:
        errs.append(f"max_diff_in_se {doc['max_diff_in_se']} > {N_SE}")
    if not doc["chi2_pvalue"] >= CHI2_P_MIN:
        errs.append(f"chi2 p-value {doc['chi2_pvalue']} < {CHI2_P_MIN}")
    return errs


def check_mc_tails(op, out: str, err: str) -> list:
    t = _csv(out)
    want = -math.expm1(-0.5) / -math.expm1(-1.0)
    got = float(t["ratio"][0])
    if abs(got - want) <= TAILS_REL * want and t["unreliable"][0] == 0:
        return []
    return [f"tail ratio {got} not within {TAILS_REL:.0%} of {want:.6f} (or flagged unreliable)"]


def check_mc_subexp(op, out: str, err: str) -> list:
    errs = []
    flags = json.loads(err.strip().splitlines()[-1])
    if flags.get("consistent") is not True:
        errs.append("diagnostic not consistent")
    t = _csv(out)
    ratios = t["ratio"][t["reliable"] == 1]
    if ratios.size == 0 or not np.all(ratios <= SUBEXP_RATIO_MAX):
        errs.append(f"reliable ratios exceed {SUBEXP_RATIO_MAX}")
    return errs


CHECKS = {
    "analyze": check_analyze,
    "condition-limit": check_condition_limit,
    "condition-subexp": check_condition_subexp,
    "coin": check_coin,
    "poisson": check_poisson,
    "renewal": check_renewal,
    "mc-survival": check_mc_survival,
    "mc-transient": check_mc_transient,
    "mc-conditioned": check_mc_conditioned,
    "mc-compare": check_mc_compare,
    "mc-tails": check_mc_tails,
    "mc-subexp": check_mc_subexp,
}


def check(op, rc: int, out: str, err: str) -> list:
    """Failure messages for one call's exit code and output; empty when correct."""
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[:200]}"]
    try:
        return CHECKS[op.kind](op, out, err)
    except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]
