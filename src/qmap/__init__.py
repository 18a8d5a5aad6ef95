"""Quantized-MAP estimation for Bayesian high-dimensional linear regression.

Recovers a stationary-process parameter vector from linear measurements by
projected gradient descent with an exact Viterbi projection onto quantized
low-complexity sequence sets, with Monte Carlo validators for the
underlying concentration bounds.
"""

from .quantize import QuantAlphabet, build_alphabet, quantize_vector
from .sources import (
    PiecewiseConstant,
    QuantKernel,
    SpikeSlab,
    TableMarkov,
    WeightTable,
    cond_entropy,
    info_dimension_curve,
    quantized_kernel,
    sample_path,
    weights_from_kernel,
)
from .empirics import complexity_cost
from .projection import (
    InfeasibleProjection,
    ProblemTooLarge,
    project_constrained,
    project_l0,
    project_lagrangian,
)
from .sensing import SenseMatrix, gen_gaussian, measure
from .solver import PgdConfig, PgdTrace, default_gamma, pgd_solve, pgd_solve_stack
from .validation import (
    TailEstimate,
    chi_square_tail,
    f_minimax,
    gaussian_projection_check,
    inner_product_tail,
    mc_empirical_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "QuantAlphabet", "build_alphabet", "quantize_vector",
    "SpikeSlab", "PiecewiseConstant", "TableMarkov", "QuantKernel", "WeightTable",
    "sample_path", "quantized_kernel", "weights_from_kernel", "cond_entropy",
    "info_dimension_curve",
    "complexity_cost",
    "InfeasibleProjection", "ProblemTooLarge", "project_lagrangian",
    "project_constrained", "project_l0",
    "SenseMatrix", "gen_gaussian", "measure",
    "PgdConfig", "PgdTrace", "pgd_solve", "pgd_solve_stack", "default_gamma",
    "TailEstimate", "mc_empirical_deviation", "chi_square_tail",
    "inner_product_tail", "f_minimax", "gaussian_projection_check",
    "__version__",
]
