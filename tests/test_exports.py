"""Every exported name resolves, and the package exports exactly its modules' APIs."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import zerohold as z
from zerohold import errors

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
