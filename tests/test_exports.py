"""Every name in `__all__` resolves, in the package and in each of its modules.

A stale entry would make `from lppdist import *` raise AttributeError.
"""

import importlib

import pytest

MODULES = ("lppdist", "lppdist.weights", "lppdist.lpp", "lppdist.detformulas",
           "lppdist.meixner", "lppdist.fredholm", "lppdist.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
