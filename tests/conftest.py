"""Shared chain fixtures and the acceptance-summary reporter.

Acceptance tests register one line per criterion through record_criterion;
the terminal-summary hook prints them after the run so the pass/fail table
shows up in plain pytest output.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import zerohold as z

ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def single_interior_spec() -> z.ChainSpec:
    # q0 = 1 into state 1, q1 = 2 straight back; threshold 1
    return z.ChainSpec(
        n_states=2,
        rates=np.array([[0.0, 1.0], [2.0, 0.0]]),
        wait_threshold=1.0,
    )


def four_state_spec() -> z.ChainSpec:
    rates = np.zeros((4, 4))
    rates[0, 1] = 0.8
    rates[0, 2] = 0.4
    rates[1, 0] = 1.0
    rates[1, 2] = 0.6
    rates[2, 1] = 0.5
    rates[2, 3] = 0.9
    rates[3, 2] = 1.2
    rates[3, 0] = 0.3
    return z.ChainSpec(n_states=4, rates=rates, wait_threshold=0.8)


def poisson_chain_spec(r: float) -> z.ChainSpec:
    # single state with a self-rate: every event is an instant return to 0
    return z.ChainSpec(n_states=1, rates=np.array([[r]]), wait_threshold=1.0)


def heavy_bd_spec(n: int = 40) -> z.ChainSpec:
    # birth-death with b_i = d_i = 1/i: null-recurrent, heavy return tails
    rates = np.zeros((n + 1, n + 1))
    rates[0, 1] = 1.0
    for i in range(1, n):
        rates[i, i + 1] = 1.0 / i
        rates[i, i - 1] = 1.0 / i
    rates[n, n - 1] = 1.0 / n
    return z.ChainSpec(n_states=n + 1, rates=rates, wait_threshold=1.0)


def chord_bd_spec(n: int) -> z.ChainSpec:
    # the b=1, d=2 truncation plus one-way chords 5 -> 3 and n/2 -> max(n/2 - 7, 1):
    # drift and no detailed balance
    base = z.build_birth_death(1.0, 2.0, n, {1: 1.0})
    rates = base.rates.copy()
    rates[5, 3] += 0.1
    rates[n // 2, max(n // 2 - 7, 1)] += 0.05
    return z.ChainSpec(n_states=n + 1, rates=rates, escape_state=base.escape_state)


def load_perfbench(name: str):
    """A module of the benchmark in ``perfbench/``, which is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def benchmark_spec(name: str, seed: int = 1) -> z.ChainSpec:
    """The analyze-sweep chain ``name`` as ``perfbench/workloads.py`` builds it at ``seed``."""
    workloads = load_perfbench("workloads")
    with tempfile.TemporaryDirectory() as outdir:
        ops = workloads.build("analyze-sweep", seed, outdir).ops
    chain = next(op.chain for op in ops if op.chain is not None and op.chain.name == name)
    return z.ChainSpec(n_states=chain.n, rates=chain.rates, wait_threshold=chain.theta, escape_state=chain.escape)


def killed_matrix(spec: z.ChainSpec, drop_escape: bool = False) -> tuple:
    """The generator of the chain killed at the origin as a dense matrix, with the
    state each row stands for: the oracle for eigensolves and exponentials.  With
    ``drop_escape`` a truncation's escape state is removed as well."""
    states = [i for i in spec.interior_states() if not (drop_escape and i == spec.escape_state)]
    idx = np.asarray(states)
    return spec.rates[np.ix_(idx, idx)] - np.diag(spec.exit_rates[idx]), tuple(states)


def generator_block(q: np.ndarray) -> tuple:
    # a killed generator's matrix as perron_decay takes it: M(0)'s diagonal and the rates, dense
    return -np.diag(q), q - np.diag(np.diag(q))


@pytest.fixture
def single_interior() -> z.ChainSpec:
    return single_interior_spec()


@pytest.fixture
def four_state() -> z.ChainSpec:
    return four_state_spec()


@pytest.fixture
def transient_walk() -> z.ChainSpec:
    return z.build_birth_death(2.0, 1.0, 60, {1: 1.0})


@pytest.fixture
def recurrent_walk() -> z.ChainSpec:
    return z.build_birth_death(1.0, 2.0, 60, {1: 1.0})


@pytest.fixture
def hitting_mgf_calls(monkeypatch) -> list:
    """Arguments of every hitting_mgf call, wherever a zerohold module looks the function up."""
    calls = []
    fn = z.hitting_mgf

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("zerohold.") and getattr(module, "hitting_mgf", None) is fn:
            monkeypatch.setattr(module, "hitting_mgf", counted)
    return calls
