"""The four routes share nothing but `weights`.

Each route module is parsed, not imported, and every import statement in it
is resolved to a module name.  Any module of the package other than `weights`
would let one route lean on another, and agreement between them would stop
being independent evidence.  The Meixner route also imports no contour
quadrature: its polynomials come from their exact recurrence.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lppdist"
ROUTES = ("lpp", "detformulas", "meixner", "fredholm")
QUADRATURE = {"ContourConfig", "adaptive_batch", "circle_nodes", "delta_w_contour"}
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def package_imports(source: str) -> set[str]:
    """Package modules a module imports; the package itself counts as `lppdist`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["lppdist" if node.level else "", node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "lppdist":
                found.add(parts[1] if len(parts) > 1 and parts[1] in SIBLINGS else "lppdist")
    return found


@pytest.mark.parametrize("route", ROUTES)
def test_route_imports_only_weights(route):
    source = (PACKAGE / f"{route}.py").read_text()
    assert package_imports(source) <= {"weights"}


def test_meixner_imports_no_quadrature():
    tree = ast.parse((PACKAGE / "meixner.py").read_text())
    imported = {
        alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & QUADRATURE == set()


def test_resolver_sees_every_import_form():
    source = "\n".join([
        "from .weights import a",
        "from . import lpp",
        "from lppdist.meixner import b",
        "import lppdist.fredholm",
        "from lppdist import c",
        "import lppdist",
        "import numpy",
        "from fractions import Fraction",
    ])
    assert package_imports(source) == {"weights", "lpp", "meixner", "fredholm", "lppdist"}
