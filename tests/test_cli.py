import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zerohold as z
import zerohold.cli as cli
import zerohold.hitting as hitting
import zerohold.renewal as renewal
from zerohold.errors import IterationError

from conftest import chord_bd_spec, four_state_spec, poisson_chain_spec, single_interior_spec

SUBCOMMANDS = [
    "analyze",
    "coin",
    "poisson",
    "renewal",
    "simulate",
    "condition",
    "tails",
    "diagnose-subexp",
]


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(z.emit_spec(single_interior_spec()), encoding="utf-8")
    return str(path)


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_analyze_matches_solver(spec_file, capsys):
    rc, out, err = run(["analyze", spec_file], capsys)
    assert rc == 0
    doc = json.loads(out)
    sol = z.solve_phi(single_interior_spec())
    assert doc["classification"] == "recurrent"
    assert doc["regime"] == "alpha-positive"
    assert doc["phi"]["value"] == pytest.approx(sol.phi, abs=1e-12)
    assert doc["kappa"]["value"] == pytest.approx(sol.kappa, abs=1e-12)
    assert doc["alpha_c"]["value"] == pytest.approx(2.0, abs=1e-12)


def test_coin_json_and_table(capsys):
    rc, out, _ = run(["coin", "--p", "0.5", "--k", "2"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["s_k"] == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-9)
    rc, out, _ = run(["coin", "--p", "0.5", "--k", "2", "--n", "4"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,exact,asymptote,rel_error"
    assert len(lines) == 6
    last = lines[-1].split(",")
    assert last[0] == "4"
    assert float(last[1]) == 0.5


def test_coin_table_exact_at_the_double_root(capsys):
    # Feller's fair coin with runs of one: c = 2 makes the asymptote 2^-n exactly
    rc, out, _ = run(["coin", "--p", "0.5", "--k", "1", "--n", "3"], capsys)
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]
    assert all(float(row[3]) == 0.0 for row in rows)


def test_poisson_json(capsys):
    rc, out, _ = run(["poisson", "--r", "1"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["phi_r"] == 1.0
    assert doc["c_r"] == 2.0


def test_renewal_csv_scaled(spec_file, capsys):
    rc, out, _ = run(
        ["renewal", spec_file, "--t-max", "2", "--dt", "0.02", "--scale-by-phi"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,s,scaled_s"
    assert len(lines) == 102
    sol = z.solve_phi(single_interior_spec())
    for row in (lines[1], lines[50], lines[-1]):
        tv, sv, cv = (float(x) for x in row.split(","))
        assert cv == pytest.approx(math.exp(sol.phi * tv) * sv, rel=1e-9)


def test_renewal_scaled_column_stays_finite_on_a_long_grid(tmp_path):
    # on the Poisson chain r = 1, e^{t} s(t) -> 2 while s falls below 1e-300 by t = 720;
    # a subprocess, so that a RuntimeWarning would reach stderr
    path = tmp_path / "p1.json"
    path.write_text(z.emit_spec(poisson_chain_spec(1.0)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(z.__file__)))
    argv = ["renewal", str(path), "--t-max", "720", "--dt", "0.02", "--scale-by-phi"]
    proc = subprocess.run([sys.executable, "-m", "zerohold", *argv], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    t, s, scaled = np.array([[float(v) for v in row.split(",")] for row in proc.stdout.splitlines()[1:]]).T
    assert np.all(np.isfinite(scaled))
    normal = (t > 40.0) & (s >= np.finfo(float).tiny)
    assert normal.sum() > 30_000
    assert np.max(np.abs(scaled[normal] - 2.0)) <= 1e-3


def test_renewal_start_is_one_solve_after_the_grid_checks(spec_file, capsys, monkeypatch):
    starts = []
    solve = renewal._delay_solve
    monkeypatch.setattr(renewal, "_delay_solve", lambda *a: starts.append(a[3]) or solve(*a))
    rc, out, _ = run(["renewal", spec_file, "--t-max", "2", "--dt", "0.02", "--start", "1"], capsys)
    assert rc == 0 and len(out.splitlines()) == 102
    assert starts == [z.AugmentedState(1)]
    # a bad grid is reported before a bad start
    rc, out, err = run(["renewal", spec_file, "--t-max", "2", "--dt", "0.3", "--start", "9"], capsys)
    assert rc == 1 and out == ""
    assert "fiftieth" in json.loads(err)["message"]


def test_simulate_thread_count_is_cosmetic(spec_file, capsys):
    cases = [
        (["--mode", "survival", "--t-grid", "1,2,4"], "t,estimate,stderr,n_paths,seed"),
        (["--mode", "rejection", "--window", "1.5"], "state,occupation,stderr,n_kept,seed"),
    ]
    for mode_args, header in cases:
        argv = ["simulate", spec_file, *mode_args, "--n-paths", "400", "--horizon", "5", "--seed", "3"]
        rc1, out1, _ = run(argv + ["--threads", "1"], capsys)
        rc4, out4, _ = run(argv + ["--threads", "4"], capsys)
        assert rc1 == rc4 == 0
        assert out1 == out4
        assert out1.splitlines()[0] == header


def test_simulate_byte_stable_rerun(spec_file, capsys):
    argv = [
        "simulate", spec_file, "--mode", "survival", "--n-paths", "300",
        "--horizon", "4", "--seed", "11",
    ]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_condition_vague_reports_hazard(spec_file, capsys):
    rc, out, _ = run(["condition", spec_file, "--mode", "vague"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "vague"
    assert doc["hazard"]["type"] == "theorem36"
    assert doc["honest"] is False


def test_condition_hlambda_requires_lam(spec_file, capsys):
    rc, out, err = run(["condition", spec_file, "--mode", "hlambda"], capsys)
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["exit_code"] == 1


def test_malformed_spec_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json", encoding="utf-8")
    rc, out, err = run(["analyze", str(bad)], capsys)
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError"
    assert doc["exit_code"] == 1


def test_numeric_failure_exits_two(spec_file, capsys, monkeypatch):
    def boom(spec, **kwargs):
        raise IterationError("solver stalled")

    monkeypatch.setattr(cli, "solve_phi", boom)
    rc, out, err = run(["analyze", spec_file], capsys)
    assert rc == 2
    doc = json.loads(err)
    assert doc["error"] == "IterationError"
    assert doc["exit_code"] == 2


def test_analyze_drifting_chain_with_one_way_chords(tmp_path, capsys):
    # pivoted shifted solves made perron_decay give up here with exit 2
    path = tmp_path / "chord200.json"
    path.write_text(z.emit_spec(chord_bd_spec(200)), encoding="utf-8")
    rc, out, _ = run(["analyze", str(path)], capsys)
    assert rc == 0
    assert json.loads(out)["alpha_c"]["value"] == pytest.approx(0.17226214018870307241, rel=1e-13)


def test_analyze_runs_one_hitting_analysis(tmp_path, capsys, monkeypatch):
    calls = {"never_hit_prob": 0, "perron_decay": 0}

    def counted(name):
        fn = getattr(hitting, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(hitting, name, counted(name))
    path = tmp_path / "four.json"
    path.write_text(z.emit_spec(four_state_spec()), encoding="utf-8")
    rc, out, _ = run(["analyze", str(path)], capsys)
    assert rc == 0
    assert json.loads(out)["regime"] == "alpha-positive"
    assert calls == {"never_hit_prob": 1, "perron_decay": 1}


def _two_state_file(tmp_path, rate_out, rate_back, theta):
    path = tmp_path / "two.json"
    doc = {"n_states": 2, "rates": [[0, 1, rate_out], [1, 0, rate_back]], "wait_threshold": theta}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_transform_overflow_exits_two(tmp_path, capsys):
    for rates, theta in (((1e4, 2e4), 1.0), ((1.0, 2.0), 1e6)):
        rc, out, err = run(["analyze", _two_state_file(tmp_path, *rates, theta)], capsys)
        assert rc == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "NumericError"
        assert doc["exit_code"] == 2


def test_infinite_wait_threshold_exits_one(tmp_path, capsys):
    # an input error, not a NumericError from the transform or an OverflowError from float()
    for theta in (math.inf, 10**400):
        rc, out, err = run(["analyze", _two_state_file(tmp_path, 1.0, 2.0, theta)], capsys)
        assert rc == 1
        assert out == ""
        assert json.loads(err)["error"] == "ParseError"


def test_rate_beyond_the_double_range_exits_one(tmp_path, capsys):
    rc, out, err = run(["analyze", _two_state_file(tmp_path, 10**400, 2.0, 1.0)], capsys)
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"


def _bd_file(tmp_path, n):
    path = tmp_path / f"bd{n}.json"
    path.write_text(z.emit_spec(z.build_birth_death(1.0, 2.0, n, {1: 1.0})), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("n, argv", [(12, ["--mode", "hlambda", "--lam", "0.1"]), (60, ["--mode", "limit"])],
                         ids=["bd12-hlambda", "bd60-limit"])
def test_condition_never_enters_the_escape_state(tmp_path, capsys, n, argv):
    # h is zero at the escape state of a truncation, which the chain never returns from
    rc, out, err = run(["condition", _bd_file(tmp_path, n), *argv], capsys)
    assert rc == 0, err
    assert "Infinity" not in out and "NaN" not in out
    doc = json.loads(out)
    assert doc["h_values"][n] == 0.0
    assert [(i, j) for i, j, _ in doc["interior_rates"] if n in (i, j)] == []
    assert n not in [j for j, _ in doc["exit_probs"]]
    assert n not in [i for i, _ in doc.get("interior_kill", [])]


def test_simulate_limit_on_a_recurrent_truncation(tmp_path, capsys):
    spec = _bd_file(tmp_path, 60)
    rc, out, err = run(["simulate", spec, "--mode", "conditioned", "--kind", "limit", "--horizon", "10",
                        "--n-paths", "2000", "--seed", "3"], capsys)
    assert rc == 0, err
    # the limit chain is honest: no path dies
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["1"] * 11
    rc, out, err = run(["simulate", spec, "--mode", "compare", "--kind", "limit", "--horizon", "10", "--window", "2",
                        "--n-paths", "5000", "--seed", "3"], capsys)
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["n_conditioned"] == doc["n_rejection"] > 100
    assert doc["chi2_pvalue"] > 0.001


@pytest.mark.parametrize("kind", [["--kind", "hlambda", "--lam", "0.1"], ["--kind", "limit"]], ids=["hlambda", "limit"])
def test_simulate_conditioned_from_where_h_is_zero_exits_one(tmp_path, capsys, kind):
    rc, out, err = run(["simulate", _bd_file(tmp_path, 60), "--mode", "conditioned", *kind, "--start", "60",
                        "--horizon", "20", "--n-paths", "200", "--t-grid", "0,10,20"], capsys)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


@pytest.mark.parametrize("spec", [four_state_spec(), z.build_birth_death(2.0, 1.0, 60, {1: 1.0}),
                                  z.build_birth_death(1.0, 2.0, 60, {1: 1.0})],
                         ids=["four-state", "transient-walk", "bd60"])
def test_limit_chain_is_the_analyzed_limit_vector(tmp_path, capsys, spec):
    path = tmp_path / "chain.json"
    path.write_text(z.emit_spec(spec), encoding="utf-8")
    rc, out, _ = run(["analyze", str(path)], capsys)
    assert rc == 0
    lv = json.loads(out)["limit_vector"]
    rc, out, err = run(["condition", str(path), "--mode", "limit"], capsys)
    assert rc == 0, err
    assert json.loads(out)["h_values"] == (np.asarray(lv["values"]) / lv["origin_fresh"]).tolist()


def test_huge_rates_terminate(tmp_path):
    # the phi bisection once had an absolute stopping width below the spacing of doubles near 1e308
    spec = _two_state_file(tmp_path, 1e308, 1e308, 1.0)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(z.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "zerohold", "analyze", spec],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode in (0, 1, 2, 3)
    assert "RuntimeWarning" not in proc.stderr
    if proc.returncode == 0:
        json.loads(proc.stdout)
    else:
        assert json.loads(proc.stderr.splitlines()[-1])["exit_code"] == proc.returncode


def test_simulate_stops_when_the_rates_dwarf_the_horizon(tmp_path):
    # a path needs about horizon x rate = 1e300 events; the sampler's event budget ends the call
    spec = _two_state_file(tmp_path, 1e300, 1e300, 1.0)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(z.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "zerohold", "simulate", spec, "--mode", "survival", "--horizon", "1",
         "--n-paths", "200", "--seed", "1"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    doc = json.loads(proc.stderr)
    assert doc["error"] == "InfeasibleError" and doc["exit_code"] == 3


def test_rejection_with_no_survivors_exits_three(spec_file, capsys):
    rc, out, err = run(
        [
            "simulate", spec_file, "--mode", "rejection", "--n-paths", "50",
            "--horizon", "30", "--seed", "1",
        ],
        capsys,
    )
    assert rc == 3
    doc = json.loads(err)
    assert doc["error"] == "InfeasibleError"
    assert doc["exit_code"] == 3


@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "compare", "--horizon", "4", "--window", "1", "--n-paths", "0"],
    ["simulate", "--mode", "rejection", "--horizon", "4", "--n-paths", "0"],
    ["tails", "--i", "0", "--j", "0", "--v", "0", "--t", "4", "--n-paths", "0"],
    ["tails", "--i", "0", "--j", "0", "--v", "0", "--t", "4", "--n-paths", "1"],
    ["diagnose-subexp", "--state", "1", "--order", "2", "--n-samples", "-3"],
    ["diagnose-subexp", "--state", "1", "--order", "2", "--horizon", "-5"],
], ids=["compare-0", "rejection-0", "tails-0", "tails-1", "subexp-negative", "subexp-horizon-negative"])
def test_too_few_paths_exit_one(spec_file, capsys, argv):
    rc, out, err = run([argv[0], spec_file, *argv[1:]], capsys)
    assert rc == 1
    assert out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == "PreconditionError"
    assert doc["exit_code"] == 1


@pytest.mark.parametrize("eps, regime", [(1e-14, "no-root"), (1e-8, "alpha-positive")])
def test_analyze_no_root_regime(tmp_path, capsys, eps, regime):
    # state 2 hangs off state 1 by a rate eps; at eps = 1e-14 the return transform has no root
    path = tmp_path / "trap.json"
    doc = {"n_states": 3, "rates": [[0, 1, 1.0], [1, 0, 1.0], [1, 2, eps], [2, 1, 1e-3]], "wait_threshold": 1.0}
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, _ = run(["analyze", str(path)], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["regime"] == regime
    present = {"phi", "kappa", "limit_vector"} & set(report)
    assert present == (set() if regime == "no-root" else {"phi", "kappa", "limit_vector"})


_SCIPY_PROBE = """
import contextlib, io, json, sys
import zerohold.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen, numpy_random = {"import": scipy_modules()}, {"import": "numpy.random" in sys.modules}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, name
    seen[name] = scipy_modules()
    numpy_random[name] = "numpy.random" in sys.modules
print(json.dumps([seen, numpy_random]))
"""


def test_cold_commands_leave_out_scipy(tmp_path):
    # scipy.linalg alone is about half of a cold start; a fresh interpreter on
    # src/ only, so that nothing the test session imported can mask a regression
    single, four, chord = tmp_path / "single.json", tmp_path / "four.json", tmp_path / "chord.json"
    bd12 = tmp_path / "bd12.json"
    single.write_text(z.emit_spec(single_interior_spec()), encoding="utf-8")
    four.write_text(z.emit_spec(four_state_spec()), encoding="utf-8")
    chord.write_text(z.emit_spec(chord_bd_spec(12)), encoding="utf-8")
    bd12.write_text(z.emit_spec(z.build_birth_death(1.0, 2.0, 12, {1: 1.0})), encoding="utf-8")
    calls = [
        ("analyze", ["analyze", str(single)]),
        ("renewal", ["renewal", str(single), "--t-max", "2", "--dt", "0.02"]),
        ("renewal-phi", ["renewal", str(single), "--t-max", "2", "--dt", "0.02", "--scale-by-phi"]),
        # the hold completes between nodes: the partial step from the clock
        ("renewal-clock", ["renewal", str(single), "--t-max", "2", "--dt", "0.02", "--start", "0:0.41"]),
        ("renewal-four", ["renewal", str(four), "--t-max", "2", "--dt", "0.01"]),
        ("condition-limit", ["condition", str(single), "--mode", "limit"]),
        ("condition-subexp", ["condition", str(bd12), "--mode", "subexp"]),
        # the sampler reads its words through numpy's Philox, so it comes after
        # the commands that must leave numpy.random out
        ("simulate", ["simulate", str(four), "--mode", "survival", "--horizon", "5", "--n-paths", "500",
                      "--seed", "1"]),
        ("analyze-dense", ["analyze", str(chord)]),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(z.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(calls)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    seen, numpy_random = json.loads(proc.stdout)
    assert [name for name, modules in seen.items() if modules and name != "analyze-dense"] == []
    # a chain with one-way chords takes the dense elimination, which needs
    # scipy: the probe sees an import when there is one
    assert "scipy.linalg" in seen["analyze-dense"]
    # analyze, renewal and condition leave numpy.random out; the sampler shows that the probe sees it
    assert [name for name, loaded in numpy_random.items() if loaded] == ["simulate", "analyze-dense"]


@pytest.mark.parametrize("argv", [
    ["renewal", "SPEC", "--t-max", "3", "--dt", "nan"],
    ["renewal", "SPEC", "--t-max", "nan", "--dt", "0.01"],
    ["renewal", "SPEC", "--t-max", "inf", "--dt", "0.01"],
    ["simulate", "SPEC", "--mode", "survival", "--horizon", "3", "--t-grid", ","],
    ["simulate", "SPEC", "--mode", "survival", "--horizon", "inf", "--n-paths", "200"],
    ["poisson", "--r", "nan"],
    ["diagnose-subexp", "SPEC", "--state", "1", "--order", "2", "--horizon", "nan"],
], ids=["dt-nan", "t-max-nan", "t-max-inf", "empty-grid", "horizon-inf", "r-nan", "subexp-horizon-nan"])
def test_non_finite_numbers_exit_one(spec_file, argv):
    # a subprocess with a timeout, since an infinite horizon once looped forever
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(z.__file__)))
    argv = [spec_file if a == "SPEC" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "zerohold", *argv], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["exit_code"] == 1


@pytest.mark.parametrize("dt", ["1e-300", "1e-5"])
def test_renewal_grid_cap_exits_one(spec_file, dt):
    # a subprocess with a timeout: an unbounded grid once died in np.empty or marched for hours
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(z.__file__)))
    argv = ["renewal", spec_file, "--t-max", "3", "--dt", dt]
    proc = subprocess.run([sys.executable, "-m", "zerohold", *argv], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    doc = json.loads(proc.stderr)
    assert doc["error"] == "PreconditionError"
    assert str(renewal.MAX_NODES) in doc["message"]


@pytest.mark.parametrize("argv", [
    ["--mode", "survival", "--horizon", "-3"],
    ["--mode", "survival", "--horizon", "0"],
    ["--mode", "survival", "--horizon", "3", "--t-grid=-1,2"],
    ["--mode", "conditioned", "--horizon", "-3"],
    ["--mode", "survival", "--horizon", "3", "--seed", "-1"],
    ["--mode", "survival", "--horizon", "3", "--seed", str(2**64)],
    ["--mode", "compare", "--horizon", "3", "--seed", "-1"],
], ids=["horizon-negative", "horizon-zero", "grid-negative", "conditioned-negative", "seed-negative",
        "seed-too-large", "compare-seed-negative"])
def test_negative_survival_times_exit_one(spec_file, capsys, argv):
    rc, out, err = run(["simulate", spec_file, *argv, "--n-paths", "200"], capsys)
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "PreconditionError"


@pytest.mark.parametrize("mode, flag, past", [
    ("rejection", "--window", "9"),
    ("survival", "--t-grid", "7"),
    ("conditioned", "--t-grid", "1,7"),
])
def test_times_past_the_horizon_exit_one(spec_file, capsys, mode, flag, past):
    # nothing is simulated past --horizon, so no reported time may lie beyond it
    argv = ["simulate", spec_file, "--mode", mode, "--horizon", "5", "--n-paths", "200"]
    rc, out, err = run(argv + [flag, past], capsys)
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "PreconditionError"
    rc, out, err = run(argv + [flag, "5"], capsys)
    assert rc == 0 and err == ""


def test_poisson_underflow_exits_two(capsys):
    rc, out, err = run(["poisson", "--r", "1000"], capsys)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "NumericError"


def test_unforeseen_error_exits_two(capsys, monkeypatch):
    def broken(args):
        raise ValueError("not a package error")

    monkeypatch.setattr(cli, "cmd_poisson", broken)
    rc, out, err = run(["poisson", "--r", "2"], capsys)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "ValueError", "message": "not a package error", "exit_code": 2}


def test_repeated_calls_reuse_one_parser(capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        rc, out, _ = run(["poisson", "--r", "2"], capsys)
        assert rc == 0 and json.loads(out)["r"] == 2.0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_command_replaced_after_first_call_runs(capsys, monkeypatch):
    # the benchmark's tracer wraps cmd_* on the module after a warm-up call,
    # so the cached parser must not hold the function objects
    run(["coin", "--p", "0.5", "--k", "2"], capsys)
    monkeypatch.setattr(cli, "cmd_coin", lambda args: f"replaced {args.k}\n")
    monkeypatch.setattr(cli, "cmd_diagnose_subexp", lambda args: f"replaced {args.order}\n")
    assert run(["coin", "--p", "0.5", "--k", "2"], capsys) == (0, "replaced 2\n", "")
    assert run(["diagnose-subexp", "x.json", "--state", "1", "--order", "3"], capsys) == (0, "replaced 3\n", "")


def test_every_subcommand_has_help(capsys):
    for name in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out


def test_tails_csv(spec_file, capsys):
    rc, out, _ = run(
        [
            "tails", spec_file, "--i", "0:0.5", "--j", "0:0.5", "--v", "0",
            "--t", "4", "--n-paths", "800", "--seed", "2",
        ],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "ratio"
    row = lines[1].split(",")
    # common random numbers make the same-start ratio exactly one
    assert float(row[0]) == 1.0


def test_condition_subexp_beyond_birth_death(tmp_path, capsys):
    chord, long = tmp_path / "chord12.json", tmp_path / "bd1100.json"
    chord.write_text(z.emit_spec(chord_bd_spec(12)), encoding="utf-8")
    long.write_text(z.emit_spec(z.build_birth_death(1.0, 2.0, 1100, {1: 1.0})), encoding="utf-8")
    rc, out, err = run(["condition", str(chord), "--mode", "subexp"], capsys)
    assert rc == 0 and err == ""
    assert json.loads(out)["kind"] == "subexp-weak"
    # the harmonic vector overflows: an error, not NaN rates and numpy warnings
    rc, out, err = run(["condition", str(long), "--mode", "subexp"], capsys)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "NumericError"
