"""Cross-validated evaluators for directed last-passage times with geometric weights.

Four independent representations of P[G(m, n) <= eta] live side by side:
Monte Carlo simulation and exact dynamic programming (`lpp`), finite
difference determinants (`detformulas`), Meixner ensemble box sums
(`meixner`), and biorthogonal / Fredholm contour machinery (`fredholm`).
They share only `weights` (the scalar calculus, the state cap and the
ordered-vector type), so agreement between them is evidence, not
tautology.  The `lppdist` console script exposes the same evaluators plus a
crosscheck harness.

The package exports exactly the names its modules list in their `__all__`;
each name is listed in one module only.
"""

from . import detformulas, fredholm, lpp, meixner, weights
from .weights import *
from .lpp import *
from .detformulas import *
from .meixner import *
from .fredholm import *

__version__ = "0.1.0"

__all__ = [name for module in (weights, lpp, detformulas, meixner, fredholm)
           for name in module.__all__] + ["__version__"]
