"""The benchmark drives zerohold by names that must keep working.

``perfbench/spans.py`` lists the layer functions it wraps in ``LAYERS``; a
function renamed or deleted there would make ``--trace 1`` fail, so every
name must resolve.  ``perfbench/workloads.py`` builds the CLI calls it
times; a flag the CLI no longer accepts would fail the benchmark, so every
call must parse.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from zerohold import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = _load("spans")
    missing = [
        name for name in spans.NAMES
        if not callable(getattr(importlib.import_module(f"zerohold.{name.split('.')[0]}"), name.split(".")[1], None))
    ]
    assert spans.NAMES and not missing


def test_every_benchmark_call_parses(tmp_path, capsys):
    workloads = _load("workloads")
    rejected = []
    for name in workloads.WORKLOADS:
        batch = workloads.build(name, 1, str(tmp_path / name))
        for argv in [op.argv for op in batch.ops] + [batch.cold_argv]:
            try:
                cli._build_parser().parse_args(argv)
            except SystemExit:
                rejected.append((argv, capsys.readouterr().err))
    assert not rejected
