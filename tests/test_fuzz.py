"""Seeded random specs through every subcommand that reads a spec, in process.

Every spec runs through ``analyze``, ``renewal --scale-by-phi``, ``condition``
in modes limit, vague, subexp and hlambda at tilt 0, ``simulate`` in modes
survival, conditioned (limit and vague) and compare, ``tails`` and
``diagnose-subexp``.  A call fails the test when it exits outside 0-3, names
an error outside ``zerohold.errors`` and ``UsageError``, writes to stderr
anything but one JSON line, raises a warning, prints NaN or inf on exit 0,
or runs past a wall cap.  On exit 0 stderr stays empty, but for the one JSON
line of flags that ``diagnose-subexp`` writes; NaN may stand only in a
``tails`` row flagged ``unreliable`` and a ``diagnose-subexp`` row not
flagged ``reliable``.  Specs that ``parse_spec`` rejects are counted apart:
every subcommand must exit 1 on them with ``SpecValidationError``.

One-state specs are the Poisson case, so ``analyze`` on them is also held to
``poisson --r q0 theta``.

    python tests/test_fuzz.py --seed S --specs N

runs a larger sweep and prints the failures, the counts and, per command,
how many calls ended with each exit code and error name.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest

import zerohold as z
import zerohold.cli as cli
import zerohold.errors

SEED = 36
N_SPECS = 60
# a hang shows as a call past this wall time; every call here takes well under 0.1 s
WALL_CAP_S = 3.0
# mean events per simulated path; the horizon is capped there so that a chain
# whose rates dwarf 3 theta does not spend seconds reaching the event budget
EVENTS_PER_PATH = 400
ERROR_NAMES = frozenset(zerohold.errors.__all__) | {"UsageError"}


def random_spec(rng: np.random.Generator) -> dict:
    """A spec document: n = 1-6, rates log-uniform over six decades, 30 % of specs
    scaled by 10^U(-8, 8), theta log-uniform, an escape state on 30 % of specs with
    n > 2.  Each entry, the origin's self rate included, is present with
    probability 0.6, so some specs are invalid."""
    n = int(rng.integers(1, 7))
    scale = 10.0 ** rng.uniform(-8.0, 8.0) if rng.random() < 0.3 else 1.0
    triples = [
        [i, j, float(scale * 10.0 ** rng.uniform(-3.0, 3.0))]
        for i in range(n)
        for j in range(n)
        if (i == 0 or i != j) and rng.random() < 0.6
    ]
    doc = {"n_states": n, "rates": triples, "wait_threshold": float(10.0 ** rng.uniform(-2.0, 2.0))}
    if n > 2 and rng.random() < 0.3:
        doc["escape_state"] = int(rng.integers(1, n))
    return doc


def _horizon(doc: dict) -> float:
    rows = np.zeros(doc["n_states"])
    for i, _, rate in doc["rates"]:
        rows[i] += rate
    top = float(rows.max())
    return min(3.0 * doc["wait_threshold"], EVENTS_PER_PATH / top) if top > 0.0 else 3.0 * doc["wait_threshold"]


COMMANDS = {
    "analyze": lambda path, doc: ["analyze", path],
    "renewal": lambda path, doc: [
        "renewal", path, "--scale-by-phi",
        "--dt", repr(doc["wait_threshold"] / 50.0), "--t-max", repr(3.0 * doc["wait_threshold"]),
    ],
    "condition-limit": lambda path, doc: ["condition", path, "--mode", "limit"],
    "condition-vague": lambda path, doc: ["condition", path, "--mode", "vague"],
    "condition-subexp": lambda path, doc: ["condition", path, "--mode", "subexp"],
    "condition-hlambda": lambda path, doc: ["condition", path, "--mode", "hlambda", "--lam", "0"],
    "simulate": lambda path, doc: _simulate(path, doc, "survival"),
    "simulate-limit": lambda path, doc: _simulate(path, doc, "conditioned", "--kind", "limit"),
    "simulate-vague": lambda path, doc: _simulate(path, doc, "conditioned", "--kind", "vague"),
    "simulate-compare": lambda path, doc: _simulate(path, doc, "compare"),
    "tails": lambda path, doc: [
        "tails", path, "--i", f"0:{doc['wait_threshold'] / 2.0!r}", "--j", "0", "--v", "0",
        "--t", repr(_horizon(doc)), "--n-paths", "300", "--seed", "1",
    ],
    "diagnose-subexp": lambda path, doc: [
        "diagnose-subexp", path, "--state", "1", "--order", "2", "--n-samples", "300",
        "--horizon", repr(_horizon(doc)), "--seed", "1",
    ],
}

# the CSV column that flags the rows where NaN may stand, and the flag value that allows it
NAN_FLAGS = {"tails": ("unreliable", "1"), "diagnose-subexp": ("reliable", "0")}
SUBEXP_FLAGS = {"order", "consistent", "unreliable", "degenerate"}


def _simulate(path: str, doc: dict, mode: str, *rest) -> list:
    return ["simulate", path, "--mode", mode, *rest, "--n-paths", "300", "--seed", "1",
            "--horizon", repr(_horizon(doc))]


def _non_finite(out: str, command: str) -> bool:
    """Whether a JSON report or a CSV table holds NaN or inf outside the rows flagged for NaN."""
    if out.startswith("{"):
        constants = []
        json.loads(out, parse_constant=constants.append)
        return bool(constants)
    header, *rows = (line.split(",") for line in out.splitlines())
    column, allows = NAN_FLAGS.get(command, (None, None))
    for row in rows:
        nan_ok = column is not None and row[header.index(column)] == allows
        if not all(math.isfinite(x) or (nan_ok and math.isnan(x)) for x in map(float, row)):
            return True
    return False


def _flags_line(err: str) -> bool:
    """Whether stderr is the one JSON line of ``diagnose-subexp`` flags."""
    try:
        return err.count("\n") == 1 and err.endswith("\n") and set(json.loads(err)) == SUBEXP_FLAGS
    except ValueError:
        return False


def run_call(argv: list) -> tuple:
    """One CLI call in process: exit code, stdout, stderr, wall time and the first warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), wall, caught[0] if caught else None


def check_call(argv: list, valid: bool) -> tuple:
    """Run one CLI call in process; the fault found or None, and the outcome: the exit
    code, with the error's name on a nonzero exit."""
    rc, out, err, wall, warning = run_call(argv)
    outcome = str(rc)
    if rc != 0:
        try:
            outcome += f" {json.loads(err).get('error')}"
        except (ValueError, AttributeError):
            outcome += " (no JSON body)"
    if wall > WALL_CAP_S:
        return f"took {wall:.2f} s", outcome
    if warning is not None:
        return f"warned {warning.category.__name__}: {warning.message}", outcome
    if rc not in (0, 1, 2, 3):
        return f"exit {rc}", outcome
    if rc == 0:
        if not (_flags_line(err) if argv[0] == "diagnose-subexp" else not err):
            return f"exit 0 with stderr {err!r}", outcome
        if not valid:
            return "exit 0 on an invalid spec", outcome
        return ("NaN or inf in the output" if _non_finite(out, argv[0]) else None), outcome
    if out or err.count("\n") != 1 or not err.endswith("\n"):
        return f"exit {rc} with stdout {out!r} and stderr {err!r}", outcome
    try:
        body = json.loads(err)
    except ValueError:
        return f"stderr is not JSON: {err!r}", outcome
    name = body.get("error")
    if name not in ERROR_NAMES or body.get("exit_code") != rc:
        return f"exit {rc} with foreign error {name}: {body.get('message')}", outcome
    if not valid and (rc, name) != (1, "SpecValidationError"):
        return f"invalid spec gave exit {rc} with {name}", outcome
    return None, outcome


def write_specs(seed: int, count: int, directory: str) -> list:
    """``(path, doc, valid)`` for ``count`` random specs written under ``directory``."""
    rng = np.random.default_rng(seed)
    specs = []
    for k in range(count):
        doc = random_spec(rng)
        text = json.dumps(doc)
        try:
            z.parse_spec(text)
            valid = True
        except z.SpecValidationError:
            valid = False
        path = os.path.join(directory, f"spec{k:04d}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        specs.append((path, doc, valid))
    return specs


def sweep(command: str, specs: list) -> tuple:
    """The faults of ``command`` over ``specs``, the counts of valid and invalid specs, and
    how many calls ended with each outcome."""
    faults, outcomes = [], collections.Counter()
    for path, doc, valid in specs:
        fault, outcome = check_call(COMMANDS[command](path, doc), valid)
        outcomes[outcome] += 1
        if fault is not None:
            faults.append(f"{command} {os.path.basename(path)} {json.dumps(doc)}: {fault}")
    n_valid = sum(valid for _, _, valid in specs)
    return faults, n_valid, len(specs) - n_valid, outcomes


def poisson_route_faults(specs: list) -> list:
    """Faults of ``analyze`` on the valid one-state specs, the Poisson case with r = q0 theta.

    Where e^{-r} is a normal double ``analyze`` must exit 0, and for r <= 5
    its phi theta and kappa must be ``poisson --r r``'s phi_r and c_r to 1e-12.
    """
    faults = []
    for path, doc, valid in specs:
        if not valid or doc["n_states"] != 1:
            continue
        theta = doc["wait_threshold"]
        r = doc["rates"][0][2] * theta
        if math.exp(-r) < sys.float_info.min:
            continue
        rc, out, err, _, _ = run_call(["analyze", path])
        if rc != 0:
            faults.append(f"analyze {json.dumps(doc)}: exit {rc} {err.strip()}")
            continue
        if r > 5.0:
            continue
        got = json.loads(out)
        rc, out, err, _, _ = run_call(["poisson", "--r", repr(r)])
        want = json.loads(out)
        if rc != 0 or not (math.isclose(got["phi"]["value"] * theta, want["phi_r"], rel_tol=1e-12)
                           and math.isclose(got["kappa"]["value"], want["c_r"], rel_tol=1e-12)):
            faults.append(f"analyze {json.dumps(doc)}: phi theta {got['phi']['value'] * theta!r}, "
                          f"kappa {got['kappa']['value']!r}; poisson --r {r!r} gives {out.strip()} {err.strip()}")
    return faults


@pytest.fixture(scope="module")
def fuzz_specs(tmp_path_factory):
    return write_specs(SEED, N_SPECS, str(tmp_path_factory.mktemp("fuzz")))


@pytest.mark.parametrize("command", list(COMMANDS))
def test_random_specs(command, fuzz_specs):
    faults, n_valid, n_invalid, _ = sweep(command, fuzz_specs)
    assert not faults, "\n".join(faults)
    # the generator reaches both kinds of spec
    assert n_valid >= N_SPECS // 3 and n_invalid >= 1


@pytest.mark.parametrize("r", [1e-300, 1e-10, 1e-3, 0.01, 0.5, 1.0, 2.0, 5.0, 700.0])
def test_one_state_analyze_is_the_poisson_case(r, tmp_path):
    # q0 theta far below one is where solve_phi's first step lands far above phi
    specs = []
    for theta in (0.01, 1.0, 37.0):
        doc = {"n_states": 1, "rates": [[0, 0, r / theta]], "wait_threshold": theta}
        path = tmp_path / f"theta{theta}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        specs.append((str(path), doc, True))
    faults = poisson_route_faults(specs)
    assert not faults, "\n".join(faults)


def test_random_one_state_specs_are_the_poisson_case(fuzz_specs):
    assert sum(doc["n_states"] == 1 and valid for _, doc, valid in fuzz_specs) >= 3
    faults = poisson_route_faults(fuzz_specs)
    assert not faults, "\n".join(faults)


def _main() -> int:
    parser = argparse.ArgumentParser(description="Random-spec sweep through every subcommand that reads a spec.")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--specs", type=int, default=N_SPECS)
    args = parser.parse_args()
    total = 0
    with tempfile.TemporaryDirectory() as directory:
        specs = write_specs(args.seed, args.specs, directory)
        for command in COMMANDS:
            faults, n_valid, n_invalid, outcomes = sweep(command, specs)
            total += len(faults)
            for fault in faults:
                print(fault)
            counts = ", ".join(f"{outcome}: {count}" for outcome, count in sorted(outcomes.items()))
            print(f"{command}: {len(faults)} faults on {n_valid} valid and {n_invalid} invalid specs; {counts}")
        faults = poisson_route_faults(specs)
        total += len(faults)
        for fault in faults:
            print(fault)
        print(f"one-state analyze against poisson: {len(faults)} faults")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(_main())
