"""Every name in `hcl.__all__` and in each `hcl.*` module's `__all__` resolves,
so deleting a function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import hcl

MODULES = [hcl] + [importlib.import_module(f"hcl.{info.name}")
                   for info in pkgutil.iter_modules(hcl.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
