"""Seeded random specs through the numeric subcommands, in process.

Every spec runs through ``analyze``, ``renewal --scale-by-phi``, ``condition``
in modes limit, vague and subexp, and ``simulate --mode survival``.  A call
fails the test when it exits outside 0-3, names an error outside
``zerohold.errors`` and ``UsageError``, writes to stderr anything but one JSON
line (or anything at all on exit 0), raises a warning, prints NaN or inf on
exit 0, or runs past a wall cap.  Specs that ``parse_spec`` rejects are
counted apart: every subcommand must exit 1 on them with
``SpecValidationError``.

    python tests/test_fuzz.py --seed S --specs N

runs a larger sweep and prints the failures and the counts.
"""

from __future__ import annotations

import argparse
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
    "simulate": lambda path, doc: [
        "simulate", path, "--mode", "survival", "--n-paths", "300", "--seed", "1",
        "--horizon", repr(_horizon(doc)),
    ],
}


def _non_finite(out: str) -> bool:
    """Whether a JSON report or a CSV table holds NaN or inf."""
    if out.startswith("{"):
        constants = []
        json.loads(out, parse_constant=constants.append)
        return bool(constants)
    rows = out.splitlines()[1:]
    return not all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def check_call(argv: list, valid: bool) -> str | None:
    """Run one CLI call in process; the fault found, or None."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    if wall > WALL_CAP_S:
        return f"took {wall:.2f} s"
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    if rc not in (0, 1, 2, 3):
        return f"exit {rc}"
    if rc == 0:
        if err:
            return f"exit 0 with stderr {err!r}"
        if not valid:
            return "exit 0 on an invalid spec"
        return "NaN or inf in the output" if _non_finite(out) else None
    if out or err.count("\n") != 1 or not err.endswith("\n"):
        return f"exit {rc} with stdout {out!r} and stderr {err!r}"
    try:
        body = json.loads(err)
    except ValueError:
        return f"stderr is not JSON: {err!r}"
    name = body.get("error")
    if name not in ERROR_NAMES or body.get("exit_code") != rc:
        return f"exit {rc} with foreign error {name}: {body.get('message')}"
    if not valid and (rc, name) != (1, "SpecValidationError"):
        return f"invalid spec gave exit {rc} with {name}"
    return None


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
    """The faults of ``command`` over ``specs``, and the counts of valid and invalid specs."""
    faults = []
    for path, doc, valid in specs:
        fault = check_call(COMMANDS[command](path, doc), valid)
        if fault is not None:
            faults.append(f"{command} {os.path.basename(path)} {json.dumps(doc)}: {fault}")
    n_valid = sum(valid for _, _, valid in specs)
    return faults, n_valid, len(specs) - n_valid


@pytest.fixture(scope="module")
def fuzz_specs(tmp_path_factory):
    return write_specs(SEED, N_SPECS, str(tmp_path_factory.mktemp("fuzz")))


@pytest.mark.parametrize("command", list(COMMANDS))
def test_random_specs(command, fuzz_specs):
    faults, n_valid, n_invalid = sweep(command, fuzz_specs)
    assert not faults, "\n".join(faults)
    # the generator reaches both kinds of spec
    assert n_valid >= N_SPECS // 3 and n_invalid >= 1


def _main() -> int:
    parser = argparse.ArgumentParser(description="Random-spec sweep through the numeric subcommands.")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--specs", type=int, default=N_SPECS)
    args = parser.parse_args()
    total = 0
    with tempfile.TemporaryDirectory() as directory:
        specs = write_specs(args.seed, args.specs, directory)
        for command in COMMANDS:
            faults, n_valid, n_invalid = sweep(command, specs)
            total += len(faults)
            for fault in faults:
                print(fault)
            print(f"{command}: {len(faults)} faults on {n_valid} valid and {n_invalid} invalid specs")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(_main())
