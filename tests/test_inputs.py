"""Every count and seed that enters a sampling path, and every component
count a spectral routine splits at, passes one rule: an integral number (an
integral float included), never a bool, a string or NaN."""

import math

import numpy as np
import pytest

from kpcalab import (
    ConfigError,
    ExperimentConfig,
    InvalidInput,
    PerturbationCase,
    basis_factor,
    derive_seed,
    draw_samples,
    embed_exact,
    embed_rf,
    ell_for,
    fit_exact,
    fit_rf,
    fractional_power,
    generator,
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
