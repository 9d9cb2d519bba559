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
from zerohold.errors import IterationError

from conftest import four_state_spec, single_interior_spec

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


def test_huge_rates_terminate(tmp_path):
    # the phi bisection once had an absolute stopping width below the spacing of doubles near 1e308
    spec = _two_state_file(tmp_path, 1e308, 1e308, 1.0)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(z.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "zerohold", "analyze", spec],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode in (0, 1, 2, 3)
    if proc.returncode == 0:
        json.loads(proc.stdout)
    else:
        assert json.loads(proc.stderr.splitlines()[-1])["exit_code"] == proc.returncode


def test_bad_thread_env_exits_one(spec_file, capsys, monkeypatch):
    monkeypatch.setenv("ZEROHOLD_THREADS", "abc")
    rc, out, err = run(["simulate", spec_file, "--mode", "survival", "--n-paths", "100", "--horizon", "2"], capsys)
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "SpecError"
    assert doc["exit_code"] == 1


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
