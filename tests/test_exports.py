"""The package exports exactly what its modules' ``__all__`` lists name."""

import importlib

import pytest

import kpcalab

_LAYERS = ("errors", "rng", "linalg", "measures", "kernels", "features", "kpca", "oracle",
           "bounds", "rates")

# The public surface; a change here is an API change.
_PUBLIC = sorted("""
    BernsteinBound BoundReport CapacityError ConfigError DegenerateModel DiscreteMeasure
    DomainError EigengapError ExperimentConfig FeatureSample FunctionTable GAP_TOL
    InvalidInput Kernel KpcaModel MC_EXPERIMENTS METRICS McTailConfig McTailReport
    NotPositiveSemidefinite NumericFailure OperatorInequalitySuiteReport OutOfRegime
    PerturbReport PerturbationCase PerturbationSuiteReport PopOperator ProjectionLike
    RANK_RTOL RankError RateReport RateRow RfKpcaModel SlopeBand Spectrum TransitionReport
    __version__ basis_factor bernstein_bound center_gram cos_form_kernel
    cross_gram derive_seed discrete_measure draw_samples eigengaps ell_for embed_exact
    embed_rf feature_matrix fit_exact fit_rf fit_slope fix_signs fixed_gap_band
    fractional_power generator gram kernel_eval lambda_schedule m_for
    make_finite_rank_kernel make_perturbation_cases matrix_norm mc_tail op_aa op_jj
    operator_inequality_suite oracle_snapshot perturb_check perturbation_suite
    predicted_exponent proj_distance proj_hat proj_hat_rf proj_pop recon_error run_grid
    sample_finite_rank sample_rff spectral_projector sym_eig tail_energy
    transition_study uniform_measure
""".split())


def _module(layer):
    return importlib.import_module(f"kpcalab.{layer}")


def test_package_all_is_the_module_lists_joined():
    joined = ["__version__"] + [name for layer in _LAYERS for name in _module(layer).__all__]
    assert kpcalab.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert sorted(kpcalab.__all__) == _PUBLIC


@pytest.mark.parametrize("layer", _LAYERS)
def test_each_export_is_its_modules_object(layer):
    module = _module(layer)
    for name in module.__all__:
        assert getattr(kpcalab, name) is getattr(module, name), name


@pytest.mark.parametrize("layer, names", [
    ("linalg", ["GAP_TOL", "RANK_RTOL"]),
    ("bounds", ["PerturbationSuiteReport", "OperatorInequalitySuiteReport"]),
    ("rates", ["TransitionReport"]),
    ("errors", ["InvalidInput", "ConfigError", "RankError", "EigengapError", "DomainError",
                "CapacityError", "DegenerateModel", "OutOfRegime", "NotPositiveSemidefinite",
                "NumericFailure"]),
])
def test_names_once_exported_only_by_the_package_are_in_their_modules_list(layer, names):
    assert set(names) <= set(_module(layer).__all__)
