"""Kernel PCA, random-feature approximations, and an exact finite-support
oracle for the population quantities both try to estimate.

The pieces, bottom up: symmetric eigensolves and spectral projectors
(linalg), discrete ground-truth measures (measures), Gaussian and
finite-rank kernels with exactly known spectra (kernels), random Fourier
and finite-rank feature draws (features), the exact and feature-space
KPCA fits (kpca), the population operators and projector metrics
computed in closed form (oracle), perturbation and concentration bound
checkers (bounds), and the rate-fitting experiment harness (rates).
The kpcalab console script in cli drives all of it from JSON configs.

The sample-level fits and projectors and the Gaussian / random Fourier
path are the reference route the rate cells are cross-checked against.
PerturbationCase, perturb_check and make_perturbation_cases are one-case
views of the stacked bound suite.
"""

from .bounds import (
    MC_EXPERIMENTS,
    BernsteinBound,
    BoundReport,
    McTailConfig,
    McTailReport,
    OperatorInequalitySuiteReport,
    PerturbationCase,
    PerturbationSuiteReport,
    PerturbReport,
    bernstein_bound,
    make_perturbation_cases,
    mc_tail,
    operator_inequality_suite,
    perturb_check,
    perturbation_suite,
)
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateModel,
    DomainError,
    EigengapError,
    InvalidInput,
    NotPositiveSemidefinite,
    NumericFailure,
    OutOfRegime,
    RankError,
)
from .features import (
    FeatureSample,
    basis_factor,
    cos_form_kernel,
    feature_matrix,
    sample_finite_rank,
    sample_rff,
)
from .kernels import (
    FunctionTable,
    Kernel,
    center_gram,
    cross_gram,
    gaussian_kernel,
    gram,
    kernel_eval,
    make_finite_rank_kernel,
)
from .kpca import (
    KpcaModel,
    RfKpcaModel,
    embed_exact,
    embed_rf,
    fit_exact,
    fit_rf,
)
from .linalg import (
    GAP_TOL,
    RANK_RTOL,
    Spectrum,
    eigengaps,
    fix_signs,
    fractional_power,
    matrix_norm,
    spectral_projector,
    sym_eig,
)
from .measures import DiscreteMeasure, discrete_measure, draw_samples, uniform_measure
from .oracle import (
    PopOperator,
    ProjectionLike,
    op_aa,
    op_jj,
    oracle_snapshot,
    proj_distance,
    proj_hat,
    proj_hat_rf,
    proj_pop,
    recon_error,
    tail_energy,
)
from .rates import (
    METRICS,
    ExperimentConfig,
    RateReport,
    RateRow,
    TransitionReport,
    TransitionRow,
    ell_for,
    fit_slope,
    lambda_schedule,
    m_for,
    predicted_exponent,
    run_grid,
    transition_study,
)
from .rng import derive_seed, generator

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "InvalidInput", "ConfigError", "RankError", "EigengapError", "DomainError",
    "CapacityError", "DegenerateModel", "OutOfRegime", "NotPositiveSemidefinite",
    "NumericFailure",
    # rng
    "derive_seed", "generator",
    # linalg
    "RANK_RTOL", "GAP_TOL", "Spectrum", "sym_eig", "fix_signs", "matrix_norm",
    "fractional_power", "spectral_projector", "eigengaps",
    # measures
    "DiscreteMeasure", "discrete_measure", "uniform_measure", "draw_samples",
    # kernels
    "FunctionTable", "Kernel", "gaussian_kernel", "make_finite_rank_kernel",
    "kernel_eval", "gram", "cross_gram", "center_gram",
    # features
    "FeatureSample", "sample_rff", "sample_finite_rank", "basis_factor",
    "feature_matrix", "cos_form_kernel",
    # kpca
    "KpcaModel", "RfKpcaModel", "fit_exact", "embed_exact", "fit_rf", "embed_rf",
    # oracle
    "PopOperator", "ProjectionLike", "op_jj", "op_aa", "tail_energy", "proj_pop",
    "proj_hat", "proj_hat_rf", "recon_error", "proj_distance", "oracle_snapshot",
    # bounds
    "BoundReport", "PerturbationCase", "PerturbReport", "perturb_check",
    "make_perturbation_cases", "perturbation_suite", "PerturbationSuiteReport",
    "operator_inequality_suite", "OperatorInequalitySuiteReport", "BernsteinBound",
    "bernstein_bound", "McTailConfig", "McTailReport", "MC_EXPERIMENTS", "mc_tail",
    # rates
    "METRICS", "ExperimentConfig", "RateRow", "RateReport", "TransitionRow",
    "TransitionReport", "lambda_schedule", "ell_for", "m_for",
    "predicted_exponent", "fit_slope", "run_grid", "transition_study",
]
