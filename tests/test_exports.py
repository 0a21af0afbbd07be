"""Every name a dife module exports in __all__ exists."""

import importlib

import pytest

import dife


@pytest.mark.parametrize("module", ["dife"] + [f"dife.{m}" for m in dife.__all__])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
