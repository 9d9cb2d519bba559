"""Command-line front end tying the analyses together.

Structured reports go to stdout as JSON, curves and estimates as CSV; the two
are never mixed in one run.  Errors are reported as a single JSON object on
stderr with exit codes 0 (success), 1 (input/validation), 2 (numeric
failure, or any other unforeseen error), 3 (infeasible request); no command
prints a traceback.  Given identical inputs and seed the output is
byte-stable.  The samplers run their paths in index order on one thread;
``--threads`` is accepted and ignored, so older scripts still run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .asymptotics import PHI_RTOL, limit_vector_recurrent, limit_vector_transient, solve_phi
from .chain import AugmentedState, parse_spec
from .coinruns import coin_result, poisson_phi
from .conditioned import (
    conditioned_to_json,
    make_hlambda,
    make_limit_chain,
    make_subexp_weak,
    make_vague_limit,
)
from .errors import InfeasibleError, NumericError, SpecError
from .hitting import TRANSIENT_DELTA_TOL, analyze_hitting, harmonic_vector_bd
from .montecarlo import (
    conditioned_vs_rejection,
    estimate_survival,
    estimate_tail_ratio,
    rejection_window_stats,
    sample_hitting_times,
    subexp_diagnostic,
)
from .renewal import curve_to_csv, lift_survival, solve_renewal

__all__ = ["main"]

# tolerances of the producing routines, quoted next to every number reported
_LINSOLVE_TOL = 1e-10
_PERRON_TOL = 1e-12
_DERIVED_TOL = 1e-10


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_spec(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise SpecError(f"cannot read spec file {path!r}: {e}") from None
    return parse_spec(text)


def _finite(text: str) -> float:
    """Argparse type of every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"wants a finite number, got {text!r}")
    return value


def _parse_state(text: str) -> AugmentedState:
    """STATE, or STATE:CLOCK for the origin with a running hold."""
    try:
        if ":" in text:
            s, c = text.split(":", 1)
            return AugmentedState(int(s), _finite(c))
        return AugmentedState(int(text), 0.0)
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise SpecError(f"bad state {text!r}: {e}") from None


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [_finite(piece) for piece in text.split(",") if piece.strip() != ""]
    except argparse.ArgumentTypeError:
        values = []
    if not values:
        raise SpecError(f"{flag} wants a comma-separated list of finite numbers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> str:
    spec = _load_spec(args.spec)
    ha = analyze_hitting(spec)
    report = {
        "classification": "transient" if ha.transient else "recurrent",
        "beta": {"values": [float(b) for b in ha.beta], "tol": _LINSOLVE_TOL},
        "delta": {"value": float(ha.delta), "tol": _LINSOLVE_TOL},
    }
    if math.isfinite(ha.mu_C):
        report["mu_c"] = {"value": float(ha.mu_C), "tol": _PERRON_TOL}
    if math.isfinite(ha.alpha_C):
        report["alpha_c"] = {"value": float(ha.alpha_C), "tol": _PERRON_TOL}
    if ha.transient:
        p = limit_vector_transient(spec, ha)
        report["limit_vector"] = {
            "values": [float(v) for v in p.values],
            "origin_fresh": float(p.values[0]),
            "phi": 0.0,
            "tol": _LINSOLVE_TOL,
        }
    else:
        sol = solve_phi(spec, ha=ha)
        report["regime"] = sol.regime
        if sol.regime in ("alpha-positive", "derivative-infinite"):
            report["phi"] = {"value": float(sol.phi), "tol": PHI_RTOL}
        if sol.regime == "alpha-positive":
            report["kappa"] = {"value": float(sol.kappa), "tol": _DERIVED_TOL}
            p = limit_vector_recurrent(spec, sol)
            report["limit_vector"] = {
                "values": [float(v) for v in p.values],
                "origin_fresh": float(p.values[0]),
                "phi": float(sol.phi),
                "tol": _DERIVED_TOL,
            }
    report["seeds"] = {}
    report["tolerances"] = {
        "linear_solve": _LINSOLVE_TOL,
        "perron": _PERRON_TOL,
        "phi_bisection": PHI_RTOL,
        "transient_threshold": TRANSIENT_DELTA_TOL,
    }
    return json.dumps(report, indent=2) + "\n"


# ---------------------------------------------------------------------------
# coin / poisson


def cmd_coin(args) -> str:
    res = coin_result(args.p, args.k, args.n)
    if res.table is None:
        doc = {"p": res.p, "k": res.k, "s_k": res.s_k, "c_k": res.c_k}
        return json.dumps(doc, indent=2) + "\n"
    lines = ["n,exact,asymptote,rel_error"]
    for n, exact, asym in res.table:
        rel = abs(asym - exact) / exact if exact > 0.0 else math.inf
        lines.append(f"{n},{_fmt(exact)},{_fmt(asym)},{_fmt(rel)}")
    return "\n".join(lines) + "\n"


def cmd_poisson(args) -> str:
    res = poisson_phi(args.r)
    return json.dumps({"r": res.r, "phi_r": res.phi_r, "c_r": res.c_r}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# renewal


def cmd_renewal(args) -> str:
    spec = _load_spec(args.spec)
    curve = solve_renewal(spec, args.t_max, args.dt)
    start = _parse_state(args.start)
    if start != AugmentedState.at_origin(0.0):
        curve = lift_survival(spec, curve, start)
    phi = None
    if args.scale_by_phi:
        sol = solve_phi(spec)
        if sol.regime != "alpha-positive":
            raise NumericError(f"no decay rate to scale by in regime {sol.regime!r}")
        phi = sol.phi
    return curve_to_csv(curve, phi)


# ---------------------------------------------------------------------------
# simulate


def _conditioned_for(spec, kind: str, lam, a_text):
    if kind == "limit":
        ha = analyze_hitting(spec)
        if ha.transient:
            p = limit_vector_transient(spec, ha)
        else:
            sol = solve_phi(spec, ha=ha)
            if sol.regime != "alpha-positive":
                raise NumericError(f"limit conditioning unavailable in regime {sol.regime!r}")
            p = limit_vector_recurrent(spec, sol)
        return make_limit_chain(spec, p)
    if kind == "vague":
        return make_vague_limit(spec)
    if kind == "hlambda":
        if lam is None:
            raise SpecError("--lam is required for hlambda conditioning")
        return make_hlambda(spec, lam)
    a = np.asarray(_parse_floats(a_text, "--a"), dtype=float) if a_text else harmonic_vector_bd(spec)
    return make_subexp_weak(spec, a)


def _estimates_csv(t_grid, estimates) -> str:
    lines = ["t,estimate,stderr,n_paths,seed"]
    for t, est in zip(t_grid, estimates):
        lines.append(f"{_fmt(t)},{_fmt(est.value)},{_fmt(est.stderr)},{est.n},{est.seed}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> str:
    spec = _load_spec(args.spec)
    start = _parse_state(args.start)
    horizon = args.horizon
    window = args.window if args.window is not None else horizon / 5.0
    if args.t_grid is not None:
        t_grid = np.asarray(_parse_floats(args.t_grid, "--t-grid"), dtype=float)
    else:
        t_grid = np.linspace(0.0, horizon, 11)
    if args.mode == "survival":
        ests = estimate_survival(spec, start, t_grid, args.n_paths, args.seed)
        return _estimates_csv(t_grid, ests)
    if args.mode == "conditioned":
        cond = _conditioned_for(spec, args.kind, args.lam, args.a)
        ests = estimate_survival(cond, start, t_grid, args.n_paths, args.seed)
        return _estimates_csv(t_grid, ests)
    if args.mode == "rejection":
        rows = rejection_window_stats(spec, start, horizon, window, args.n_paths, args.seed)
        kept = rows.shape[0]
        if not kept:
            raise InfeasibleError("no path survived the horizon; nothing to condition on")
        m = rows[:, : spec.n_states]
        lines = ["state,occupation,stderr,n_kept,seed"]
        for i in range(spec.n_states):
            se = float(np.std(m[:, i], ddof=1)) / math.sqrt(kept) if kept > 1 else 0.0
            lines.append(f"{i},{_fmt(float(m[:, i].mean()))},{_fmt(se)},{kept},{args.seed}")
        return "\n".join(lines) + "\n"
    # compare
    cond = _conditioned_for(spec, args.kind, args.lam, args.a)
    rep = conditioned_vs_rejection(spec, cond, horizon, window, args.n_paths, args.seed)
    doc = {
        "occupation_diff": [float(v) for v in rep.occupation_diff],
        "occupation_se": [float(v) for v in rep.occupation_se],
        "max_diff_in_se": float(rep.max_diff_in_se),
        "chi2_stat": float(rep.chi2_stat),
        "chi2_pvalue": float(rep.chi2_pvalue),
        "n_rejection": int(rep.n_rejection),
        "n_conditioned": int(rep.n_conditioned),
        "acceptance_rate": float(rep.acceptance_rate),
        "seed": int(rep.seed),
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# condition / tails / diagnose-subexp


def cmd_condition(args) -> str:
    spec = _load_spec(args.spec)
    cond = _conditioned_for(spec, args.mode, args.lam, args.a)
    return conditioned_to_json(cond) + "\n"


def cmd_tails(args) -> str:
    spec = _load_spec(args.spec)
    i = _parse_state(args.i)
    j = _parse_state(args.j)
    r = estimate_tail_ratio(spec, i, j, args.v, args.t, args.n_paths, args.seed)
    lines = [
        "ratio,stderr,n_paths,seed,unreliable",
        f"{_fmt(r.value)},{_fmt(r.stderr)},{r.n},{r.seed},{int(r.unreliable)}",
    ]
    return "\n".join(lines) + "\n"


def cmd_diagnose_subexp(args) -> str:
    spec = _load_spec(args.spec)
    samples = sample_hitting_times(spec, args.state, args.n_samples, args.horizon, args.seed)
    finite = samples[np.isfinite(samples)]
    if finite.size < 2:
        raise InfeasibleError("too few finite hitting samples below the horizon")
    lo = max(float(np.median(finite)), 1e-9)
    hi = max(args.horizon, lo * 10.0)
    t_grid = np.geomspace(lo, hi, 40)
    diag = subexp_diagnostic(samples, args.order, t_grid, args.seed)
    flags = {
        "order": args.order,
        "consistent": bool(diag.consistent),
        "unreliable": bool(diag.unreliable),
        "degenerate": bool(diag.degenerate),
    }
    sys.stderr.write(json.dumps(flags) + "\n")
    lines = ["t,ratio,reliable"]
    for t, ratio, rel in zip(diag.t, diag.ratio, diag.reliable):
        lines.append(f"{_fmt(float(t))},{_fmt(float(ratio))},{int(rel)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # input errors exit 1 with a JSON body, matching the scheme above
    def error(self, message):
        json.dump({"error": "UsageError", "message": message, "exit_code": 1}, sys.stderr)
        sys.stderr.write("\n")
        raise SystemExit(1)


def _add_threads(p) -> None:
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted and ignored; paths always run in index order on one thread",
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="zerohold",
        description="Long-hold survival analysis of continuous-time chains with a distinguished origin.",
        epilog="Exit codes: 0 success, 1 input/validation, 2 numeric, 3 infeasible.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a chain and report its decay data as JSON")
    p.add_argument("spec", help="path to a JSON chain-spec file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coin", help="run-length root and constant; table CSV with --n")
    p.add_argument("--p", type=_finite, required=True, help="head probability in (0, 1)")
    p.add_argument("--k", type=int, required=True, help="run length, at least 1")
    p.add_argument("--n", type=int, default=None, help="tabulate n = 0..N as CSV (default: JSON summary)")
    p.set_defaults(func=cmd_coin)

    p = sub.add_parser("poisson", help="decay rate and constant of the rate-r special case")
    p.add_argument("--r", type=_finite, required=True, help="arrival rate, positive")
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("renewal", help="survival curve from the delay form of the hold, as CSV")
    p.add_argument("spec", help="path to a JSON chain-spec file")
    p.add_argument("--t-max", type=_finite, required=True, help="end of the time grid")
    p.add_argument("--dt", type=_finite, required=True, help="grid step; must divide the holding window, at most a fiftieth of it")
    p.add_argument("--start", default="0", help="start state, STATE or 0:CLOCK (default fresh origin)")
    p.add_argument("--scale-by-phi", action="store_true", help="fill scaled_s with exp(phi t) s(t)")
    p.set_defaults(func=cmd_renewal)

    p = sub.add_parser("simulate", help="Monte Carlo estimates, as CSV (JSON for mode=compare)")
    p.add_argument("spec", help="path to a JSON chain-spec file")
    p.add_argument("--mode", required=True, choices=["survival", "conditioned", "rejection", "compare"])
    p.add_argument("--n-paths", type=int, default=10000, help="number of simulated paths (default 10000)")
    p.add_argument("--horizon", type=_finite, required=True, help="simulation horizon")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--t-grid", default=None, help="comma-separated times (default: 11 points up to the horizon)")
    p.add_argument("--start", default="0", help="start state, STATE or 0:CLOCK (default fresh origin)")
    p.add_argument("--kind", default="limit", choices=["limit", "vague", "hlambda", "subexp"], help="conditioning for modes conditioned/compare (default limit)")
    p.add_argument("--lam", type=_finite, default=None, help="tilt for --kind hlambda")
    p.add_argument("--a", default=None, help="comma-separated weights for --kind subexp (default: the chain's harmonic vector)")
    p.add_argument("--window", type=_finite, default=None, help="occupation window for modes rejection/compare (default horizon/5)")
    _add_threads(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("condition", help="emit a conditioned chain as JSON")
    p.add_argument("spec", help="path to a JSON chain-spec file")
    p.add_argument("--mode", required=True, choices=["limit", "vague", "hlambda", "subexp"])
    p.add_argument("--lam", type=_finite, default=None, help="tilt for --mode hlambda")
    p.add_argument("--a", default=None, help="comma-separated weights for --mode subexp (default: the chain's harmonic vector)")
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("tails", help="survival-tail ratio s_i(t-v)/s_j(t), as CSV")
    p.add_argument("spec", help="path to a JSON chain-spec file")
    p.add_argument("--i", required=True, help="numerator start, STATE or 0:CLOCK")
    p.add_argument("--j", required=True, help="denominator start, STATE or 0:CLOCK")
    p.add_argument("--v", type=_finite, required=True, help="time shift, 0 <= v < t")
    p.add_argument("--t", type=_finite, required=True, help="tail time")
    p.add_argument("--n-paths", type=int, default=10000, help="paths per arm (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    _add_threads(p)
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("diagnose-subexp", help="n-fold tail-ratio diagnostic of hitting times, as CSV")
    p.add_argument("spec", help="path to a JSON chain-spec file")
    p.add_argument("--state", type=int, required=True, help="interior start state for the hitting samples")
    p.add_argument("--n-samples", type=int, default=10000, help="number of hitting-time samples (default 10000)")
    p.add_argument("--order", type=int, required=True, help="convolution order n of the diagnostic")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--horizon", type=_finite, default=100.0, help="sampling horizon; longer hits are censored (default 100)")
    _add_threads(p)
    p.set_defaults(func=cmd_diagnose_subexp)

    return parser


def _emit_error(exc: Exception, code: int) -> None:
    json.dump({"error": type(exc).__name__, "message": str(exc), "exit_code": code}, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except SpecError as e:
        _emit_error(e, 1)
        return 1
    except InfeasibleError as e:
        _emit_error(e, 3)
        return 3
    except NumericError as e:
        _emit_error(e, 2)
        return 2
    except Exception as e:  # anything unforeseen is still a JSON body, never a traceback
        _emit_error(e, 2)
        return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
