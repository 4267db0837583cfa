"""Random Fourier features and finite-rank feature draws."""

import numpy as np
import pytest

from kpcalab import (
    InvalidInput,
    basis_factor,
    cos_form_kernel,
    feature_matrix,
    gram,
    kernel_eval,
    make_finite_rank_kernel,
    sample_finite_rank,
    sample_rff,
    uniform_measure,
)
from kpcalab.features import _mixed_coeffs


def _pairs(count, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, dim)), rng.standard_normal((count, dim))


def _inner(fs, x, y):
    """<Phi(x), Phi(y)> from the feature rows of the two points."""
    phi = feature_matrix(fs, np.array([x, y]))
    return float(phi[0] @ phi[1])


def test_rff_cosine_identity_and_unit_norm():
    xs, ys = _pairs(30, 3, 0)
    for m in (1, 8, 64):
        fs = sample_rff(bandwidth=1.3, point_dim=3, m=m, seed=100 + m)
        phi = feature_matrix(fs, xs)
        assert phi.shape == (30, 2 * m)
        assert np.max(np.abs(np.sum(phi**2, axis=1) - 1.0)) < 1e-14
        for x, y in zip(xs, ys):
            assert abs(cos_form_kernel(fs, x, y) - _inner(fs, x, y)) < 1e-12
    assert fs.kappa_m == 1.0


def test_rff_concentrates_on_the_gaussian_kernel():
    fs = sample_rff(bandwidth=0.9, point_dim=2, m=5000, seed=17)
    xs, ys = _pairs(10, 2, 1)
    for x, y in zip(xs, ys):
        # 4 sigma at m=5000 is about 0.057
        gaussian = np.exp(-np.sum((x - y) ** 2) / (2.0 * 0.9**2))
        assert abs(_inner(fs, x, y) - gaussian) < 0.06


def test_rff_reproducible_and_hooks():
    a = sample_rff(1.0, 2, 16, seed=5)
    b = sample_rff(1.0, 2, 16, seed=5)
    assert np.array_equal(a.omegas, b.omegas)
    with pytest.raises(InvalidInput):
        sample_rff(1.0, 2, 0, seed=0)


def _rank_kernel(t_count=5, n_atoms=20, seed=2):
    measure = uniform_measure(n_atoms)
    lam = (1.0 + np.arange(t_count)) ** -2.0
    return measure, make_finite_rank_kernel(measure, lam, seed)


def test_rank_one_family_is_exact_for_any_m():
    measure, ker = _rank_kernel(t_count=1)
    fs = sample_finite_rank(ker, 7, seed=3)
    assert np.all(fs.indices == 0)
    for x in range(4):
        for y in range(4):
            assert abs(_inner(fs, x, y) - kernel_eval(ker, x, y)) < 1e-12


def test_deterministic_quadrature_reproduces_the_kernel():
    measure, ker = _rank_kernel()
    k = gram(ker, measure.atoms)
    for mixed in (False, True):
        fs = sample_finite_rank(ker, 5, seed=9, deterministic=True, mixed=mixed)
        phi = feature_matrix(fs, measure.atoms)
        assert np.max(np.abs(phi @ phi.T - k)) < 1e-12
    with pytest.raises(InvalidInput):
        sample_finite_rank(ker, 4, seed=9, deterministic=True)


def test_sampled_features_are_unbiased():
    measure, ker = _rank_kernel()
    x, y = 3, 11
    truth = kernel_eval(ker, x, y)
    draws = np.array([
        _inner(sample_finite_rank(ker, 1, seed=s), x, y) for s in range(400)
    ])
    sd = draws.std(ddof=1)
    assert abs(draws.mean() - truth) < 4.0 * sd / np.sqrt(draws.size)


def test_mixed_features_are_unbiased_too():
    measure, ker = _rank_kernel()
    x, y = 0, 7
    truth = kernel_eval(ker, x, y)
    draws = np.array([
        _inner(sample_finite_rank(ker, 2, seed=s, mixed=True), x, y)
        for s in range(400)
    ])
    sd = draws.std(ddof=1)
    assert abs(draws.mean() - truth) < 4.0 * sd / np.sqrt(draws.size)


def test_feature_draw_reproducibility_and_kappa():
    measure, ker = _rank_kernel()
    a = sample_finite_rank(ker, 12, seed=21)
    b = sample_finite_rank(ker, 12, seed=21)
    assert np.array_equal(a.indices, b.indices)
    assert feature_matrix(a, measure.atoms).shape == (measure.size, 12)
    psi = ker.table.values
    for mixed in (False, True):
        for m, deterministic in ((12, False), (5, True)):
            fs = sample_finite_rank(ker, m, seed=21, deterministic=deterministic, mixed=mixed)
            phi = feature_matrix(fs, measure.atoms)
            # kappa_m is computed in basis coordinates; the row norms are the reference
            assert fs.kappa_m == pytest.approx(np.max(np.sum(phi**2, axis=1)), rel=1e-12)
            factor = basis_factor(fs)
            approx = psi.T @ factor @ factor.T @ psi
            assert np.max(np.abs(approx - phi @ phi.T)) < 1e-12
    with pytest.raises(InvalidInput):
        basis_factor(sample_rff(1.0, 2, 4, seed=0))


def test_kappa_m_is_derived_on_first_read():
    _, ker = _rank_kernel()
    fs = sample_finite_rank(ker, 6, seed=4, mixed=True)
    assert "kappa_m" not in vars(fs)  # a draw nobody asks about pays no T x N product
    kappa = fs.kappa_m
    assert vars(fs)["kappa_m"] == kappa > 0.0


@pytest.mark.parametrize("m", [1, 6, 40])
def test_shared_mixed_coeffs_draw_what_mixed_draws(m):
    _, ker = _rank_kernel()
    shared = _mixed_coeffs(ker, 9)
    got = sample_finite_rank(ker, m, seed=9, coeffs=shared)
    want = sample_finite_rank(ker, m, seed=9, mixed=True)
    assert got.coeffs is shared
    assert sample_finite_rank(ker, 3, seed=9, coeffs=want.coeffs).coeffs is want.coeffs
    for name in ("indices", "row_scale", "coeffs"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.m, got.kappa_m) == (want.m, want.kappa_m)


def test_kind_mismatch_errors():
    _, ker = _rank_kernel()
    fs = sample_finite_rank(ker, 4, seed=0)
    with pytest.raises(InvalidInput):
        cos_form_kernel(fs, 0, 1)  # cosine form is an rff-only identity
