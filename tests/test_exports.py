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


def test_package_exports_each_module_name_once():
    """The package's list is its modules' lists, in import order, with no name in two."""
    modules = ("lppdist.weights", "lppdist.lpp", "lppdist.detformulas", "lppdist.meixner",
               "lppdist.fredholm")
    lists = [importlib.import_module(name).__all__ for name in modules]
    names = [entry for entries in lists for entry in entries]
    assert len(names) == len(set(names))
    assert importlib.import_module("lppdist").__all__ == names + ["__version__"]
