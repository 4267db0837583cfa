"""Every count and seed that enters a sampling path, and every component
count a spectral routine splits at, passes one rule: an integral number (an
integral float included), never a bool, a string or NaN.  Every other input
check raises its documented error and message."""

import math
import re

import numpy as np
import pytest

from kpcalab import (
    ConfigError,
    DiscreteMeasure,
    DomainError,
    ExperimentConfig,
    FunctionTable,
    InvalidInput,
    Kernel,
    PerturbationCase,
    ProjectionLike,
    RankError,
    basis_factor,
    center_gram,
    cos_form_kernel,
    derive_seed,
    discrete_measure,
    draw_samples,
    embed_exact,
    embed_rf,
    ell_for,
    feature_matrix,
    fit_exact,
    fit_rf,
    fractional_power,
    generator,
    gram,
    m_for,
    make_finite_rank_kernel,
    op_jj,
    oracle_snapshot,
    proj_hat,
    proj_hat_rf,
    sample_finite_rank,
    sample_rff,
    spectral_projector,
    sym_eig,
    tail_energy,
    uniform_measure,
)

_MEASURE = uniform_measure(10)
_KERNEL = make_finite_rank_kernel(_MEASURE, [1.0, 0.5, 0.25], 3)
_EIGENVALUES = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
# Fits on every atom of a rank-5 kernel, so each retains at least 4 components.
_KERNEL5 = make_finite_rank_kernel(_MEASURE, 0.5 ** np.arange(5), 3)
_FIT = fit_exact(_KERNEL5, _MEASURE.atoms)
_RF_FIT = fit_rf(sample_finite_rank(_KERNEL5, 40, 2, mixed=True), _MEASURE.atoms)
_RFF = sample_rff(1.0, 3, 4, 1)  # a draw on R^3
_RF_CONFIG = ExperimentConfig(decay="poly", theta=0.2, n_grid=(64, 128, 256, 512),
                              replications=5, atoms=24, rank=8, seed=0,
                              metric="recon_rf_hat", alpha=2.0, tau=0.5)
# Dimension 6, so every cut index up to 4 is within the half-gap rule.
_CASE_A = np.diag([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
_CASE_B = np.zeros((6, 6))
_CASE_B[0, 5] = _CASE_B[5, 0] = 0.05

# Each entry point, as a function of the one count or seed under test.
_ENTRIES = {
    "derive_seed.master": lambda v: derive_seed(v, "x"),
    "generator.seed": lambda v: generator(v).random(3),
    "generator.labelled_seed": lambda v: generator(v, "x").random(3),
    "make_finite_rank_kernel.seed": lambda v: make_finite_rank_kernel(
        _MEASURE, [1.0, 0.5], v).table.values,
    "draw_samples.n": lambda v: draw_samples(_MEASURE, v, 1),
    "draw_samples.seed": lambda v: draw_samples(_MEASURE, 5, v),
    "uniform_measure.n_atoms": lambda v: uniform_measure(v).weights,
    "sample_finite_rank.m": lambda v: basis_factor(sample_finite_rank(_KERNEL, v, 1)),
    "sample_rff.m": lambda v: sample_rff(1.0, 2, v, 1).omegas,
    "sample_rff.point_dim": lambda v: sample_rff(1.0, v, 4, 1).omegas,
    "spectral_projector.ell": lambda v: spectral_projector(sym_eig(np.diag(_EIGENVALUES)), v),
    "tail_energy.ell": lambda v: tail_energy(_EIGENVALUES, v),
    "embed_exact.ell": lambda v: embed_exact(_FIT, _MEASURE.atoms, v),
    "embed_rf.ell": lambda v: embed_rf(_RF_FIT, _MEASURE.atoms, v),
    "proj_hat.ell": lambda v: proj_hat(_FIT, _MEASURE, v).matrix,
    "proj_hat_rf.ell": lambda v: proj_hat_rf(_RF_FIT, _MEASURE, v).matrix,
    "oracle_snapshot.seed": lambda v: oracle_snapshot(
        _KERNEL, _MEASURE, op_jj(_KERNEL, _MEASURE), v)["seed"],
    "PerturbationCase.d": lambda v: PerturbationCase(_CASE_A, _CASE_B, v).delta_d,
    "ell_for.n": lambda v: ell_for(_RF_CONFIG, v),
    "m_for.n": lambda v: m_for(_RF_CONFIG, v),
}


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("bad", [2.5, 2.7, True, math.nan, "3"],
                         ids=["half", "seed_2.7", "bool", "nan", "string"])
def test_a_non_integral_count_or_seed_is_a_config_error(entry, bad):
    with pytest.raises(ConfigError) as err:
        _ENTRIES[entry](bad)
    assert isinstance(err.value, InvalidInput)


@pytest.mark.parametrize("entry", _ENTRIES)
def test_an_integral_float_is_the_integer(entry):
    assert np.array_equal(_ENTRIES[entry](4.0), _ENTRIES[entry](4))
    assert np.array_equal(_ENTRIES[entry](np.int64(4)), _ENTRIES[entry](4))


@pytest.mark.parametrize("entry", ["draw_samples.n", "uniform_measure.n_atoms",
                                   "sample_finite_rank.m", "sample_rff.m",
                                   "sample_rff.point_dim", "spectral_projector.ell",
                                   "proj_hat.ell", "proj_hat_rf.ell", "ell_for.n", "m_for.n"])
@pytest.mark.parametrize("low", [0, -3])
def test_a_count_below_one_is_a_config_error(entry, low):
    with pytest.raises(ConfigError, match="must be >= 1"):
        _ENTRIES[entry](low)


@pytest.mark.parametrize("bad", [0, -1.0, math.inf, math.nan, True, "3"],
                         ids=["zero", "negative", "inf", "nan", "bool", "string"])
def test_an_rff_bandwidth_must_be_a_finite_positive_number(bad):
    # A zero or infinite bandwidth would draw infinite or all-zero frequencies.
    with pytest.raises(InvalidInput, match="bandwidth"):
        sample_rff(bad, 2, 4, 1)


@pytest.mark.parametrize("bad", [math.inf, math.nan, True, "1"],
                         ids=["inf", "nan", "bool", "string"])
def test_a_fractional_power_exponent_must_be_a_finite_number(bad):
    # A NaN or infinite exponent would return a NaN or infinite matrix.
    with pytest.raises(ConfigError, match="fractional_power: t"):
        fractional_power(np.diag([2.0, 1.0]), bad)


def _non_finite_gram(value):
    k = np.eye(3)
    k[0, 1] = k[1, 0] = value
    return k


# Each input check, as (call, error type, the start of its message); a
# message names the function it comes from, except the shared atom check's.
_REFUSALS = {
    "measure_lengths": (
        lambda: DiscreteMeasure(np.arange(3), np.full(2, 0.5)),
        InvalidInput, "DiscreteMeasure: 3 atoms but (2,) weights"),
    "measure_empty": (
        lambda: DiscreteMeasure(np.arange(0), np.zeros(0)),
        InvalidInput, "DiscreteMeasure: empty support"),
    "measure_sum": (
        lambda: DiscreteMeasure(np.arange(2), np.array([0.6, 0.5])),
        InvalidInput, "DiscreteMeasure: weights sum to 1.1, not 1 within 1e-12"),
    "measure_repeated_atom": (
        lambda: DiscreteMeasure(np.array([1, 1]), np.full(2, 0.5)),
        InvalidInput, "DiscreteMeasure: atoms must be pairwise distinct"),
    "discrete_measure_lengths": (
        lambda: discrete_measure(np.arange(3), np.ones(2)),
        InvalidInput, "discrete_measure: atoms and weights lengths differ"),
    "discrete_measure_negative": (
        lambda: discrete_measure(np.arange(2), np.array([1.0, -1.0])),
        InvalidInput, "discrete_measure: weights must be finite and nonnegative"),
    "discrete_measure_all_zero": (
        lambda: discrete_measure(np.arange(2), np.zeros(2)),
        InvalidInput, "discrete_measure: all weights are zero"),
    "table_shape": (
        lambda: FunctionTable(_MEASURE, np.ones((2, 9))),
        InvalidInput, "FunctionTable: values shape (2, 9) does not match 10 atoms"),
    # a constant row has weighted norm one but is not orthogonal to constants
    "table_constant_row": (
        lambda: FunctionTable(_MEASURE, np.ones((1, 10))),
        InvalidInput, "FunctionTable: rows are not orthogonal to constants"),
    "kernel_lambda_count": (
        lambda: Kernel(_KERNEL.table, np.array([1.0, 0.5])),
        InvalidInput, "Kernel: lambdas must match the table row count"),
    "gram_no_points": (
        lambda: gram(_KERNEL, np.zeros(0, dtype=int)),
        InvalidInput, "gram: need at least one point"),
    "center_gram_nan": (
        lambda: center_gram(_non_finite_gram(math.nan), np.full(3, 1 / 3)),
        InvalidInput, "center_gram: matrix contains non-finite entries"),
    "center_gram_inf": (
        lambda: center_gram(_non_finite_gram(math.inf), np.full(3, 1 / 3)),
        InvalidInput, "center_gram: matrix contains non-finite entries"),
    "center_gram_sum": (
        lambda: center_gram(np.eye(2), np.array([0.7, 0.7])),
        InvalidInput, "center_gram: weights sum to 1.4, not 1 within 1e-12"),
    "fit_exact_one_sample": (
        lambda: fit_exact(_KERNEL, np.array([3])),
        InvalidInput, "fit_exact: need at least two samples, got 1"),
    "fit_rf_one_sample": (
        lambda: fit_rf(_RF_FIT.features, np.array([3])),
        InvalidInput, "fit_rf: need at least two samples, got 1"),
    "fit_rf_0d_sample": (
        lambda: fit_rf(_RF_FIT.features, 5),
        InvalidInput, "fit_rf: need at least two samples, got 1"),
    "feature_matrix_rff_2d_points": (
        lambda: feature_matrix(_RFF, np.ones((5, 2))),
        InvalidInput, "feature_matrix: points of shape (5, 2) are not rows in R^3"),
    # a 1-d array is points in R^1, so [x, y, z] is three points, not one
    "feature_matrix_rff_1d_points": (
        lambda: feature_matrix(_RFF, [1.0, 2.0, 3.0]),
        InvalidInput, "feature_matrix: points of shape (3, 1) are not rows in R^3"),
    "fit_rf_rff_2d_points": (
        lambda: fit_rf(_RFF, np.ones((5, 2))),
        InvalidInput, "feature_matrix: points of shape (5, 2) are not rows in R^3"),
    "cos_form_kernel_rff_2d_points": (
        lambda: cos_form_kernel(_RFF, [1.0, 2.0], [0.0, 0.0]),
        InvalidInput, "cos_form_kernel: x and y of shapes (2,) and (2,) are not points in R^3"),
    "cos_form_kernel_rff_scalar_y": (
        lambda: cos_form_kernel(_RFF, [1.0, 2.0, 3.0], 0.0),
        InvalidInput, "cos_form_kernel: x and y of shapes (3,) and (1,) are not points in R^3"),
    "fractional_power_negative": (
        lambda: fractional_power(np.eye(2), -0.5),
        InvalidInput, "fractional_power: exponent must be >= 0, got -0.5"),
    "projector_asymmetric": (
        lambda: ProjectionLike(np.array([[1.0, 1.0], [0.0, 0.0]]), orthogonal=True),
        InvalidInput, "ProjectionLike: orthogonal projector is not symmetric"),
    # idempotent within the tolerance, with trace 5e-8
    "projector_trace": (
        lambda: ProjectionLike(5e-9 * np.eye(10), orthogonal=True),
        InvalidInput, "ProjectionLike: orthogonal projector trace is not integral"),
    # ell = 0 embeds no component but still checks the points
    "embed_exact_fraction_at_ell_0": (
        lambda: embed_exact(_FIT, [0.5], 0),
        DomainError, "finite-rank kernel points must be integer"),
    "embed_exact_off_support_at_ell_0": (
        lambda: embed_exact(_FIT, [0, 10], 0),
        DomainError, "finite-rank kernel point out of support"),
    "embed_rf_off_support_at_ell_0": (
        lambda: embed_rf(_RF_FIT, [0, 10], 0),
        DomainError, "finite-rank kernel point out of support"),
    "embed_exact_past_rank": (
        lambda: embed_exact(_FIT, _MEASURE.atoms, _FIT.rank + 1),
        RankError, f"embed_exact: ell={_FIT.rank + 1} outside [0, {_FIT.rank}]"),
    "embed_rf_past_rank": (
        lambda: embed_rf(_RF_FIT, _MEASURE.atoms, _RF_FIT.rank + 1),
        RankError, f"embed_rf: ell={_RF_FIT.rank + 1} outside [0, {_RF_FIT.rank}]"),
    "proj_hat_past_rank": (
        lambda: proj_hat(_FIT, _MEASURE, _FIT.rank + 1),
        RankError, f"proj_hat: ell={_FIT.rank + 1} outside [1, {_FIT.rank}]"),
    "proj_hat_rf_past_rank": (
        lambda: proj_hat_rf(_RF_FIT, _MEASURE, _RF_FIT.rank + 1),
        RankError, f"proj_hat_rf: ell={_RF_FIT.rank + 1} outside [1, {_RF_FIT.rank}]"),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_an_input_check_raises_its_error_and_message(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match="^" + re.escape(message)):
        call()
