"""Cross-validated evaluators for directed last-passage times with geometric weights.

Four independent representations of P[G(m, n) <= eta] live side by side:
Monte Carlo simulation and exact dynamic programming (`lpp`), finite
difference determinants (`detformulas`), Meixner ensemble box sums
(`meixner`), and biorthogonal / Fredholm contour machinery (`fredholm`).
They share only `weights` (the scalar calculus, the state cap and the
ordered-vector type), so agreement between them is evidence, not
tautology.  The `lppdist` console script exposes the same evaluators plus a
crosscheck harness.
"""

from .weights import (
    DEFAULT_MAX_STATES,
    MAX_STATES_ENV,
    ContourConfig,
    GeometricParameter,
    OrderedVector,
    PrecisionLossError,
    QuadratureError,
    SingularMinorError,
    StateSpaceError,
    circle_nodes,
    delta_neg_binomial,
    delta_neg_binomial_orders,
    delta_pow,
    delta_w_contour,
    geometric_pmf,
    heaviside_conv_pow,
    neg_binomial,
    toeplitz_determinant,
)
from .lpp import (
    WeightGrid,
    exact_cdf_dp,
    last_passage,
    mc_cdf,
    mc_cdfs,
    one_step_transition,
    sample_grid,
)
from .detformulas import (
    CdfQuery,
    TransitionQuery,
    bareiss_determinant,
    cdf_det,
    joint_cdf,
    transition_det,
)
from .meixner import (
    MeixnerEnsembleQuery,
    meixner_cdf_bruteforce,
    meixner_cdf_gram,
    meixner_poly,
    meixner_weight,
    partition_function,
    vandermonde,
)
from .fredholm import (
    KernelSpec,
    VARIANTS,
    a_fn,
    b_fn,
    biorthogonal_pairing,
    c_matrix,
    cdf_biorth,
    cdf_fredholm,
    kernel_eval,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_STATES",
    "MAX_STATES_ENV",
    "ContourConfig",
    "GeometricParameter",
    "OrderedVector",
    "PrecisionLossError",
    "QuadratureError",
    "SingularMinorError",
    "StateSpaceError",
    "circle_nodes",
    "delta_neg_binomial",
    "delta_neg_binomial_orders",
    "delta_pow",
    "delta_w_contour",
    "geometric_pmf",
    "heaviside_conv_pow",
    "neg_binomial",
    "toeplitz_determinant",
    "WeightGrid",
    "exact_cdf_dp",
    "last_passage",
    "mc_cdf",
    "mc_cdfs",
    "one_step_transition",
    "sample_grid",
    "CdfQuery",
    "TransitionQuery",
    "bareiss_determinant",
    "cdf_det",
    "joint_cdf",
    "transition_det",
    "MeixnerEnsembleQuery",
    "meixner_cdf_bruteforce",
    "meixner_cdf_gram",
    "meixner_poly",
    "meixner_weight",
    "partition_function",
    "vandermonde",
    "KernelSpec",
    "VARIANTS",
    "a_fn",
    "b_fn",
    "biorthogonal_pairing",
    "c_matrix",
    "cdf_biorth",
    "cdf_fredholm",
    "kernel_eval",
    "__version__",
]
