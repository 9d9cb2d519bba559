"""The benchmark drives zerohold by names that must keep working.

``perfbench/spans.py`` lists the layer functions it wraps in ``LAYERS``; a
function renamed or deleted there would make ``--trace 1`` fail, so every
name must resolve.  ``perfbench/workloads.py`` builds the CLI calls it
times; a flag the CLI no longer accepts would fail the benchmark, so every
call must parse, and every call must pass its check in
``perfbench/oracles.py``, or the benchmark counts it as failed.
"""

from __future__ import annotations

import importlib

from conftest import load_perfbench
from zerohold import cli


def test_every_traced_layer_resolves():
    spans = load_perfbench("spans")
    missing = [
        name for name in spans.NAMES
        if not callable(getattr(importlib.import_module(f"zerohold.{name.split('.')[0]}"), name.split(".")[1], None))
    ]
    assert spans.NAMES and not missing


def test_every_benchmark_call_parses(tmp_path, capsys):
    workloads = load_perfbench("workloads")
    rejected = []
    for name in workloads.WORKLOADS:
        batch = workloads.build(name, 1, str(tmp_path / name))
        for argv in [op.argv for op in batch.ops] + [batch.cold_argv]:
            try:
                cli._build_parser().parse_args(argv)
            except SystemExit:
                rejected.append((argv, capsys.readouterr().err))
    assert not rejected


def test_every_benchmark_op_passes_its_oracle(tmp_path, capsys):
    workloads, oracles = load_perfbench("workloads"), load_perfbench("oracles")
    failed = []
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1, str(tmp_path / name)).ops:
            rc = cli.main(op.argv)
            out = capsys.readouterr()
            errs = oracles.check(op, rc, out.out, out.err)
            if errs:
                failed.append((op.label, errs))
    assert not failed
