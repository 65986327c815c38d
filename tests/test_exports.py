"""Every name in `__all__` resolves, in the package and in each of its modules.

A stale entry would make `from lppdist import *` raise AttributeError.  The
typed precision error is one class wherever a module binds it, so one
`except PrecisionLossError` catches every route's refusal.
"""

import importlib

import pytest

from lppdist.weights import PrecisionLossError

MODULES = ("lppdist", "lppdist.weights", "lppdist.lpp", "lppdist.detformulas",
           "lppdist.meixner", "lppdist.fredholm", "lppdist.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    assert getattr(module, "PrecisionLossError", PrecisionLossError) is PrecisionLossError
