"""The benchmark tracer wraps zerohold's layer functions by name.

``perfbench/spans.py`` lists them in ``LAYERS``; a function renamed or
deleted there would make ``--trace 1`` fail, so every name must resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        name for name in spans.NAMES
        if not callable(getattr(importlib.import_module(f"zerohold.{name.split('.')[0]}"), name.split(".")[1], None))
    ]
    assert spans.NAMES and not missing
