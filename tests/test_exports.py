"""Every exported name resolves, and the package exports exactly its modules' APIs."""

from __future__ import annotations

import copy
import importlib
import inspect
import pkgutil

import pytest

import zerohold as z
from zerohold import errors

from conftest import single_interior_spec

MODULES = sorted(m.name for m in pkgutil.iter_modules(z.__path__) if m.name != "__main__")


def _exports(name: str) -> list[str]:
    return getattr(importlib.import_module(f"zerohold.{name}"), "__all__", [])


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"zerohold.{name}")
    assert [n for n in _exports(name) if not hasattr(module, n)] == []


def test_package_exports_resolve_and_cover_the_modules():
    assert [n for n in z.__all__ if not hasattr(z, n)] == []
    assert len(z.__all__) == len(set(z.__all__))
    # the CLI's one export is its entry point, not library API
    library = set().union(*(_exports(name) for name in MODULES if name != "cli"))
    error_classes = {n for n, c in vars(errors).items() if inspect.isclass(c) and issubclass(c, errors.ZeroholdError)}
    assert set(z.__all__) == library | error_classes


RECORDS = ["MgfValue", "HittingAnalysis", "ReturnMgf", "PhiSolution", "LimitVector", "SurvivalCurve",
           "HarmonicProfile", "DivergenceReport", "SubexpDiagnostic"]


@pytest.fixture(scope="module")
def records():
    spec = single_interior_spec()
    ha = z.analyze_hitting(spec)
    sol = z.solve_phi(spec, ha=ha)
    lv = z.limit_vector_recurrent(spec, sol)
    samples = z.sample_hitting_times(spec, 1, 200, 50.0, seed=1)
    found = [
        z.hitting_mgf(spec, 0.1), ha, z.return_mgf(spec, 0.1), sol, lv, z.solve_renewal(spec, 2.0, 0.02),
        z.verify_harmonic(spec, lv, [0.5, 1.0], 50, 1),
        z.conditioned_vs_rejection(spec, z.make_limit_chain(spec, lv), 2.0, 0.5, 2000, 1),
        z.subexp_diagnostic(samples, 2, [0.5, 1.0], 1),
    ]
    return {type(x).__name__: x for x in found}


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_compare_and_hash_by_identity(name, records):
    # each holds arrays, under which a generated __eq__ raises and a generated __hash__ fails
    x = records[name]
    twin = copy.deepcopy(x)
    assert x == x and x != twin
    assert hash(x) == hash(x)
    assert len({x, twin}) == 2
